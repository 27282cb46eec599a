//! The daemon spawns no thread per request. The count is process-wide,
//! so this test has a binary of its own.

use doebenchd::{client, Server};

/// Threads of this process.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn thread_count_stays_flat_across_queries() {
    // Pin the fan-out width, so the first query's 13 cells start every
    // helper the pool will ever have, on any host.
    doe_benchlib::set_jobs(4);
    let mut server = Server::start(0).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let query = |q: &str| {
        let r = client::query_shorthand(&addr, q, "json").expect("the daemon answers");
        assert_eq!(r.status, 200, "{q}");
    };
    query("table4");
    let after_first = threads();
    for i in 0..200 {
        // Fresh seeds fan cells out over the pool, repeats are hits, and
        // one-machine misses fan their rep loops out.
        match i % 3 {
            0 => query(&format!("table4 seed={i}")),
            1 => query("table4"),
            _ => query(&format!("table4 Eagle seed={i}")),
        }
        assert_eq!(threads(), after_first, "after query {i}");
    }
    server.stop();
}
