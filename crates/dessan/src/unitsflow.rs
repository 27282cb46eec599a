//! Units-flow analysis: `dessan-model`'s units discipline, lifted from
//! machine specs into workspace code.
//!
//! Unit facts enter from three places: the `doe_machines::units` newtypes
//! (`Micros`, `Nanos`, `GbPerS`, `GibPerS`, `Bytes` as qualifiers),
//! unit-extracting methods (`as_us`, `to_nanos`, `as_micros`, …), and
//! identifier suffixes (`send_us`, `lat_ns`, `peak_gb_s`, `cap_gib`, …).
//! Facts flow through simple `let` bindings and are then checked at every
//! `+`, `-`, and comparison: two operands with *different known* units is
//! a `units-flow` finding. Division clears a unit (dimension change), so
//! `x_ns / 1000 + y_us` is — correctly — not flagged; neither is anything
//! involving an operand whose unit is unknown, which keeps the analysis
//! quiet on generic code.
//!
//! `SimDuration::from_us`/`from_ns`/… deliberately produce *no* facts:
//! those constructors normalize internally, so `from_us(a) + from_ns(b)`
//! is correct code.
//!
//! Scope: the crates that compute with physical quantities — `memmodel`,
//! `simtime`, `netsim`, `machines`. Unlike most dessan rules this one
//! also runs in test regions: a wrong-unit arithmetic chain inside a
//! calibration assertion is exactly the silent-corruption class the
//! checker exists for.

use std::collections::BTreeMap;

use crate::callgraph::WsFile;
use crate::cfg::{self, LoopShape, Step};
use crate::dataflow::{solve, Dir, Lattice};
use crate::lex::TokKind;
use crate::lint::{LintFinding, Rule};

/// Crates in scope: the ones whose arithmetic carries physical units.
const SCOPE_CRATES: [&str; 4] = ["memmodel", "simtime", "netsim", "machines"];

/// A physical dimension+scale; all variants are pairwise incompatible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitDim {
    Picos,
    Nanos,
    Micros,
    Millis,
    Secs,
    GbPerS,
    GibPerS,
    Bytes,
}

impl UnitDim {
    fn name(self) -> &'static str {
        match self {
            UnitDim::Picos => "ps",
            UnitDim::Nanos => "ns",
            UnitDim::Micros => "µs",
            UnitDim::Millis => "ms",
            UnitDim::Secs => "s",
            UnitDim::GbPerS => "GB/s",
            UnitDim::GibPerS => "GiB/s",
            UnitDim::Bytes => "bytes",
        }
    }

    /// Unit produced by a type name, extractor method, or conversion.
    /// `from_*` constructors are intentionally absent (they normalize).
    pub fn of_constructor(name: &str) -> Option<UnitDim> {
        Some(match name {
            "Micros" | "as_us" | "to_micros" | "as_micros" => UnitDim::Micros,
            "Nanos" | "as_ns" | "to_nanos" | "as_nanos" => UnitDim::Nanos,
            "as_ps" | "to_picos" => UnitDim::Picos,
            "as_ms" | "to_millis" | "as_millis" => UnitDim::Millis,
            "as_secs" | "as_secs_f64" | "to_secs" => UnitDim::Secs,
            "GbPerS" | "to_gb_per_s" => UnitDim::GbPerS,
            "GibPerS" | "to_gib_per_s" => UnitDim::GibPerS,
            "Bytes" | "kib" | "mib" | "gib" | "as_bytes_count" => UnitDim::Bytes,
            _ => return None,
        })
    }

    /// Unit carried by an identifier's suffix (`lat_us`, `peak_gb_s`, …).
    pub fn of_suffix(ident: &str) -> Option<UnitDim> {
        // Normalizing constructors (`from_us`, `checked_from_ns`, …)
        // accept the suffix unit but *produce* a normalized value.
        if ident.starts_with("from_") || ident.contains("_from_") {
            return None;
        }
        // Longest suffixes first: `_gib_s` also ends with `_s`-free
        // patterns we must not shadow.
        const SUFFIXES: [(&str, UnitDim); 10] = [
            ("_gib_s", UnitDim::GibPerS),
            ("_gb_s", UnitDim::GbPerS),
            ("_bytes", UnitDim::Bytes),
            ("_kib", UnitDim::Bytes),
            ("_mib", UnitDim::Bytes),
            ("_gib", UnitDim::Bytes),
            ("_us", UnitDim::Micros),
            ("_ns", UnitDim::Nanos),
            ("_ps", UnitDim::Picos),
            ("_ms", UnitDim::Millis),
        ];
        SUFFIXES
            .iter()
            .find(|(s, _)| ident.ends_with(s) && ident.len() > s.len())
            .map(|&(_, u)| u)
    }
}

/// Must-facts: variable → unit; `None` is ⊤ (unreached), join intersects.
#[derive(Clone, Debug, PartialEq)]
struct Env(Option<BTreeMap<String, UnitDim>>);

impl Lattice for Env {
    fn join(&mut self, other: &Self) -> bool {
        match (&mut self.0, &other.0) {
            (_, None) => false,
            (slot @ None, Some(o)) => {
                *slot = Some(o.clone());
                true
            }
            (Some(s), Some(o)) => {
                let before = s.len();
                s.retain(|k, v| o.get(k) == Some(v));
                s.len() != before
            }
        }
    }
}

struct Ctx<'a> {
    file: &'a WsFile,
}

impl<'a> Ctx<'a> {
    fn text(&self, tok: usize) -> &'a str {
        self.file.tokens[tok].text(&self.file.src)
    }

    fn line(&self, tok: usize) -> usize {
        self.file.tokens[tok].line
    }

    fn is_ident(&self, tok: usize) -> bool {
        matches!(
            self.file.tokens[tok].kind,
            TokKind::Ident | TokKind::RawIdent
        )
    }

    /// The unit of one multiplicative atom chain: walk its elements; the
    /// last unit-bearing element (extractor, qualifier, suffixed ident,
    /// known variable) wins. Unrecognized elements don't reset — `x_us as
    /// f64` and `d.as_us().max(y)` keep their unit.
    fn atom_unit(&self, toks: &[usize], vars: &BTreeMap<String, UnitDim>) -> Option<UnitDim> {
        let mut unit = None;
        for (j, &t) in toks.iter().enumerate() {
            if !self.is_ident(t) {
                continue;
            }
            let name = self.text(t);
            if let Some(u) = UnitDim::of_constructor(name) {
                unit = Some(u);
                continue;
            }
            if let Some(u) = UnitDim::of_suffix(name) {
                unit = Some(u);
                continue;
            }
            // A known variable only counts as a bare read (not a path
            // segment or method name).
            let after_dot_or_colon = j > 0 && matches!(self.text(toks[j - 1]), "." | ":");
            if !after_dot_or_colon {
                if let Some(&u) = vars.get(name) {
                    unit = Some(u);
                }
            }
        }
        unit
    }

    /// The unit of a `+`/`-`/comparison operand: split at top-level `/`
    /// (any division is a dimension change → unknown) and `*` (known only
    /// when exactly one factor carries a unit).
    fn operand_unit(&self, toks: &[usize], vars: &BTreeMap<String, UnitDim>) -> Option<UnitDim> {
        let mut factors: Vec<Vec<usize>> = vec![Vec::new()];
        let mut depth = 0usize;
        for (j, &t) in toks.iter().enumerate() {
            match self.text(t) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "/" if depth == 0 => return None,
                // `*` is multiplication only between operands; a leading
                // or doubled `*` is a deref.
                "*" if depth == 0
                    && j > 0
                    && !matches!(self.text(toks[j - 1]), "*" | "&" | "(")
                    && !factors.last().is_some_and(|f| f.is_empty()) =>
                {
                    factors.push(Vec::new());
                    continue;
                }
                _ => {}
            }
            factors.last_mut().expect("nonempty").push(t);
        }
        let units: Vec<UnitDim> = factors
            .iter()
            .filter_map(|f| self.atom_unit(f, vars))
            .collect();
        match units.as_slice() {
            [u] => Some(*u),
            _ => None,
        }
    }
}

/// One comparison/addition group: operand segments and the operators
/// between them. Flushed (checked) at every reset boundary.
struct Group {
    segments: Vec<Vec<usize>>,
    /// `(display, line)` of the operator after segment *i*.
    ops: Vec<(&'static str, usize)>,
}

impl Group {
    fn new() -> Self {
        Group {
            segments: vec![Vec::new()],
            ops: Vec::new(),
        }
    }

    fn split(&mut self, op: &'static str, line: usize) {
        self.segments.push(Vec::new());
        self.ops.push((op, line));
    }
}

/// Check one completed group: compare consecutive *known* units among
/// its segments; a differing adjacent pair is a finding at the operator
/// between them.
fn flush_group(ctx: &Ctx, g: &Group, vars: &BTreeMap<String, UnitDim>, out: &mut Vec<LintFinding>) {
    let mut prev: Option<(UnitDim, usize)> = None;
    for (i, seg) in g.segments.iter().enumerate() {
        let Some(u) = ctx.operand_unit(seg, vars) else {
            continue;
        };
        if let Some((pu, pi)) = prev {
            if pu != u {
                // The operator between the two known operands: the first
                // op after the previous known segment.
                let (op, line) = g.ops[pi];
                if !ctx.file.items.waived(Rule::UnitsFlow.id(), line) {
                    out.push(LintFinding {
                        rule: Rule::UnitsFlow,
                        path: ctx.file.path.clone(),
                        line,
                        message: format!(
                            "mixed units in `{op}`: left operand is {} but right operand is {}; convert explicitly (e.g. via the `doe_machines::units` newtypes or `SimDuration` extractors) before combining",
                            pu.name(),
                            u.name(),
                        ),
                        chain: vec![
                            format!("left operand: {}", pu.name()),
                            format!("right operand: {}", u.name()),
                        ],
                    });
                }
            }
        }
        prev = Some((u, i.min(g.ops.len().saturating_sub(1))));
    }
}

/// Scan one token run for mixed-unit operator groups; recurse into
/// bracket groups (their contents form independent groups, but the
/// bracketed text also stays part of the enclosing segment).
#[allow(clippy::too_many_arguments)]
fn check_run(
    ctx: &Ctx,
    toks: &[usize],
    vars: &BTreeMap<String, UnitDim>,
    out: &mut Vec<LintFinding>,
) {
    let texts: Vec<&str> = toks.iter().map(|&t| ctx.text(t)).collect();
    let mut group = Group::new();
    let flush = |g: &mut Group, out: &mut Vec<LintFinding>| {
        flush_group(ctx, g, vars, out);
        *g = Group::new();
    };

    let mut i = 0;
    while i < toks.len() {
        let t = texts[i];
        match t {
            "(" | "[" => {
                // Find the matching close; recurse into the interior.
                let open = t;
                let close = if open == "(" { ")" } else { "]" };
                let mut depth = 1usize;
                let mut j = i + 1;
                while j < toks.len() {
                    if texts[j] == open {
                        depth += 1;
                    } else if texts[j] == close {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                check_run(ctx, &toks[i + 1..j.min(toks.len())], vars, out);
                // The bracket group stays in the current segment.
                for &tk in &toks[i..=j.min(toks.len() - 1)] {
                    group.segments.last_mut().expect("nonempty").push(tk);
                }
                i = j + 1;
                continue;
            }
            "+" | "-" => {
                let next = texts.get(i + 1).copied();
                let prev_op = i == 0
                    || matches!(
                        texts[i - 1],
                        "+" | "-"
                            | "*"
                            | "/"
                            | "%"
                            | "="
                            | "<"
                            | ">"
                            | "&"
                            | "|"
                            | "^"
                            | ","
                            | ";"
                            | "("
                            | "["
                            | "{"
                            | "}"
                            | "!"
                            | "?"
                    )
                    || texts[i - 1] == "return";
                if t == "-" && next == Some(">") {
                    // `->` return-type arrow: reset.
                    flush(&mut group, out);
                    i += 2;
                    continue;
                }
                if t == "+" && next == Some("=") || t == "-" && next == Some("=") {
                    // Compound assignment: the lhs and rhs DO combine.
                    group.split(if t == "+" { "+=" } else { "-=" }, ctx.line(toks[i]));
                    i += 2;
                    continue;
                }
                if prev_op {
                    // Unary sign: part of the operand.
                    group.segments.last_mut().expect("nonempty").push(toks[i]);
                    i += 1;
                    continue;
                }
                group.split(if t == "+" { "+" } else { "-" }, ctx.line(toks[i]));
                i += 1;
                continue;
            }
            "<" | ">" => {
                let next = texts.get(i + 1).copied();
                let prev = i.checked_sub(1).map(|p| texts[p]);
                // Not comparisons: `->`/`=>` handled elsewhere, `<<`/`>>`
                // shifts, `::<` turbofish, `>`s closing a turbofish list.
                if next == Some(t) || prev == Some(t) {
                    flush(&mut group, out);
                    i += if next == Some(t) { 2 } else { 1 };
                    continue;
                }
                if t == "<" && prev == Some(":") {
                    // Turbofish: skip to its matching `>` wholesale.
                    let mut depth = 1usize;
                    let mut j = i + 1;
                    while j < toks.len() && depth > 0 {
                        match texts[j] {
                            "<" => depth += 1,
                            ">" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    for &tk in &toks[i..j.min(toks.len())] {
                        group.segments.last_mut().expect("nonempty").push(tk);
                    }
                    i = j;
                    continue;
                }
                let op: &'static str = if next == Some("=") {
                    i += 1;
                    if t == "<" {
                        "<="
                    } else {
                        ">="
                    }
                } else if t == "<" {
                    "<"
                } else {
                    ">"
                };
                group.split(op, ctx.line(toks[i])); // line of the op char
                i += 1;
                continue;
            }
            "=" => {
                if texts.get(i + 1) == Some(&"=") {
                    group.split("==", ctx.line(toks[i]));
                    i += 2;
                    continue;
                }
                // Plain assignment (or `=>`): hard reset — lhs and rhs
                // are separate groups (mismatches there are real but the
                // lhs is a pattern, not an operand).
                flush(&mut group, out);
                i += 1;
                continue;
            }
            "!" if texts.get(i + 1) == Some(&"=") => {
                group.split("!=", ctx.line(toks[i]));
                i += 2;
                continue;
            }
            "," | ";" | "{" | "}" => {
                flush(&mut group, out);
                i += 1;
                continue;
            }
            "&" | "|" if texts.get(i + 1) == Some(&t) => {
                // `&&`/`||`: both sides are independent boolean operands.
                flush(&mut group, out);
                i += 2;
                continue;
            }
            _ => {}
        }
        group.segments.last_mut().expect("nonempty").push(toks[i]);
        i += 1;
    }
    flush(&mut group, out);
}

/// Track unit facts through simple `let` bindings.
fn apply_step(ctx: &Ctx, step: &Step, env: &mut Env) {
    let Some(vars) = env.0.as_mut() else { return };
    match step {
        Step::Bind { pattern, .. } => {
            // Destructured values have unknown units.
            for &p in pattern.iter() {
                if ctx.is_ident(p) {
                    vars.remove(ctx.text(p));
                }
            }
        }
        Step::Code(toks) => {
            let texts: Vec<&str> = toks.iter().map(|&t| ctx.text(t)).collect();
            if texts.first() != Some(&"let") {
                // Plain reassignment: drop the old fact.
                if toks.len() >= 2 && ctx.is_ident(toks[0]) && texts.get(1) == Some(&"=") {
                    vars.remove(texts[0]);
                }
                return;
            }
            // `let <ident>[: ty] = rhs` — single-ident patterns only.
            let mut k = 1;
            if texts.get(k) == Some(&"mut") {
                k += 1;
            }
            if k >= toks.len() || !ctx.is_ident(toks[k]) {
                return;
            }
            let name = texts[k];
            let mut eq = None;
            let mut depth = 0usize;
            for j in k + 1..toks.len() {
                match texts[j] {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                    "=" if depth == 0 && texts.get(j + 1) != Some(&"=") => {
                        eq = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(eq) = eq else { return };
            // Only direct `=` (optionally through a `: Ty` ascription),
            // not a destructuring pattern before it.
            if eq != k + 1 && texts.get(k + 1) != Some(&":") {
                return;
            }
            let rhs = &toks[eq + 1..];
            // A top-level `+`/`-` chain: unit only if all known parts
            // agree (a mixed chain is reported by the checker anyway).
            let mut vars_ro = vars.clone();
            vars_ro.remove(name);
            let unit = unit_of_sum(ctx, rhs, &vars_ro);
            match unit {
                Some(u) => {
                    vars.insert(name.to_string(), u);
                }
                None => {
                    vars.remove(name);
                }
            }
        }
    }
}

/// Unit of a whole rhs: split at top-level `+`/`-`; the unit is known
/// when at least one part is known and all known parts agree.
fn unit_of_sum(ctx: &Ctx, toks: &[usize], vars: &BTreeMap<String, UnitDim>) -> Option<UnitDim> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new()];
    let mut depth = 0usize;
    for (j, &t) in toks.iter().enumerate() {
        match ctx.text(t) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "+" | "-" if depth == 0 && j > 0 => {
                let prev = ctx.text(toks[j - 1]);
                if !matches!(
                    prev,
                    "+" | "-" | "*" | "/" | "=" | "<" | ">" | "(" | "[" | ","
                ) {
                    parts.push(Vec::new());
                    continue;
                }
            }
            _ => {}
        }
        parts.last_mut().expect("nonempty").push(t);
    }
    let units: Vec<UnitDim> = parts
        .iter()
        .filter_map(|p| ctx.operand_unit(p, vars))
        .collect();
    match units.as_slice() {
        [] => None,
        [first, rest @ ..] => rest.iter().all(|u| u == first).then_some(*first),
    }
}

/// Run the units-flow analysis over one file.
pub fn findings(file: &WsFile) -> Vec<LintFinding> {
    if !SCOPE_CRATES.contains(&crate::lint::crate_of(&file.path)) {
        return Vec::new();
    }
    let ctx = Ctx { file };
    let mut out = Vec::new();
    for f in &file.items.fns {
        if f.body_tokens.is_empty() {
            continue; // test fns stay IN scope — see module docs
        }
        let cfg = cfg::build(
            &file.src,
            &file.tokens,
            f.body_tokens.clone(),
            LoopShape::Natural,
        );
        let inputs = solve(
            &cfg,
            Dir::Forward,
            Env(Some(BTreeMap::new())),
            Env(None),
            |b, input| {
                let mut env = input.clone();
                for step in &cfg.blocks[b].steps {
                    apply_step(&ctx, step, &mut env);
                }
                env
            },
        );
        for (b, input) in inputs.iter().enumerate() {
            let mut env = input.clone();
            for step in &cfg.blocks[b].steps {
                if let Step::Code(toks) = step {
                    let empty = BTreeMap::new();
                    let vars = env.0.as_ref().unwrap_or(&empty);
                    check_run(&ctx, toks, vars, &mut out);
                }
                apply_step(&ctx, step, &mut env);
            }
        }
    }
    out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::ws_file;

    fn units_findings(src: &str) -> Vec<LintFinding> {
        let file = ws_file("crates/machines/src/fake.rs", src);
        findings(&file)
    }

    #[test]
    fn mixed_extractor_addition_is_flagged() {
        let src = "fn f(m: &M) -> f64 { m.a.as_us() + m.b.as_ns() }\n";
        let f = units_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnitsFlow);
        assert!(f[0].message.contains("µs"));
        assert!(f[0].message.contains("ns"));
    }

    #[test]
    fn same_unit_addition_is_clean() {
        let src = "fn f(m: &M) -> f64 { m.a.as_us() + m.b.as_us() + m.c.as_us() }\n";
        assert!(units_findings(src).is_empty());
    }

    #[test]
    fn suffixed_idents_carry_units() {
        let src = "fn f(lat_us: f64, lat_ns: f64) -> bool { lat_us < lat_ns }\n";
        assert_eq!(units_findings(src).len(), 1);
    }

    #[test]
    fn division_is_a_dimension_change() {
        // ns/1000 is a conversion; comparing the result is fine.
        let src = "fn f(a_ns: f64, b_us: f64) -> f64 { a_ns / 1000.0 + b_us }\n";
        assert!(units_findings(src).is_empty());
    }

    #[test]
    fn multiplication_by_scalar_preserves_unit() {
        let src = "fn f(a_ns: f64, b_us: f64) -> f64 { 2.0 * a_ns + b_us }\n";
        assert_eq!(units_findings(src).len(), 1);
    }

    #[test]
    fn from_constructors_produce_no_facts() {
        // SimDuration normalizes internally: this is CORRECT code.
        let src =
            "fn f(a: u64, b: u64) -> D { SimDuration::from_us(a) + SimDuration::from_ns(b) }\n";
        assert!(units_findings(src).is_empty());
    }

    #[test]
    fn let_bindings_carry_units_forward() {
        let src = "\
fn f(m: &M) -> f64 {
    let send = m.send.as_us();
    let recv = m.recv.as_ns();
    send + recv
}
";
        let f = units_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn gb_vs_gib_comparison_is_flagged() {
        let src = "fn f(a: &B, b: &B) -> bool { a.to_gb_per_s() >= b.to_gib_per_s() }\n";
        assert_eq!(units_findings(src).len(), 1);
    }

    #[test]
    fn boolean_connectives_do_not_bridge_operands() {
        let src = "fn f(a_us: f64, x: f64, b_ns: f64, y: f64) -> bool { a_us < x && b_ns < y }\n";
        assert!(units_findings(src).is_empty());
    }

    #[test]
    fn function_arguments_are_independent_groups() {
        let src = "fn f(a_us: f64, b_ns: f64) { g(a_us, b_ns); }\n";
        assert!(units_findings(src).is_empty());
    }

    #[test]
    fn mixed_units_inside_call_arguments_are_still_caught() {
        let src = "fn f(a_us: f64, b_ns: f64) { assert!(a_us + b_ns < 2.0); }\n";
        assert_eq!(units_findings(src).len(), 1);
    }

    #[test]
    fn test_regions_are_in_scope() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn calib() {
        let total = m.a.as_us() + m.b.as_ns();
        let _ = total;
    }
}
";
        assert_eq!(units_findings(src).len(), 1);
    }

    #[test]
    fn out_of_scope_crates_are_skipped() {
        let src = "fn f(a_us: f64, b_ns: f64) -> f64 { a_us + b_ns }\n";
        let file = ws_file("crates/report/src/fake.rs", src);
        assert!(findings(&file).is_empty());
    }

    #[test]
    fn waiver_suppresses_with_reason() {
        let src = "\
fn f(a_us: f64, b_ns: f64) -> f64 {
    // dessan::allow(units-flow): a_ns is pre-scaled upstream.
    a_us + b_ns
}
";
        assert!(units_findings(src).is_empty());
    }

    #[test]
    fn turbofish_and_shifts_are_not_comparisons() {
        let src =
            "fn f(xs: &[u64]) -> u64 { let v = xs.iter().copied().collect::<Vec<u64>>(); (v.len() as u64) << 2 }\n";
        assert!(units_findings(src).is_empty());
    }
}
