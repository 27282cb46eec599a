//! Cache-key field-coverage proofs.
//!
//! The repo's cacheability story (DESIGN §14) rests on the cell key being
//! a *complete* function of everything a result depends on: the machine
//! spec digest, the campaign digest, and the canonical query
//! serialization. Adding a field to one of those structs without routing
//! it into the key derivation is a silent cache-aliasing bug — two
//! different configurations share one cache entry and one of them serves
//! the other's numbers forever.
//!
//! This analysis makes that a lint failure. For each **target struct**
//! it locates the struct definition ([`crate::items::struct_defs`]) and
//! its designated **coverage functions** — the canonical serializers and
//! digests, pinned by `(impl qualifier, fn name)` so an unrelated
//! `to_json` elsewhere cannot vouch for a field it never renders:
//!
//! | struct         | coverage function        | how fields flow              |
//! |----------------|--------------------------|------------------------------|
//! | `QueryParams`  | `Query::to_json`         | rendered field by field      |
//! | `SpecOverride` | `Query::to_json`         | rendered field by field      |
//! | `Machine`      | `machine_digest` (free)  | `{m:?}` Debug digest         |
//!
//! A field is **covered** when some coverage fn's span mentions it — as
//! an identifier (`o.value`) or as a string literal (`"value"`) — or
//! when the coverage fn digests the whole struct through its `Debug`
//! rendering (a `…:?…` format literal naming the struct's type, valid
//! only when the struct `#[derive(Debug)]`s, which walks every field by
//! construction). An uncovered field reports `key-coverage` at the
//! field's definition line, exit-1.
//!
//! Soundness stance: the proof is *name-level*, not value-level — a
//! coverage fn that mentions `value` in dead code would satisfy it. The
//! guarantee is against the realistic failure (a field added and simply
//! forgotten), matching the seeded-mutation tests. If either the struct
//! or its coverage fn is missing from the analyzed file set (single-file
//! lint), the target is skipped rather than guessed at — the workspace
//! run always has both.

use std::collections::BTreeSet;

use crate::callgraph::WsFile;
use crate::items::struct_defs;
use crate::lex::TokKind;
use crate::lint::{LintFinding, Rule};

/// One struct whose fields must flow into the cache key, and the
/// `(impl qualifier, fn name)` pairs allowed to vouch for them.
struct Target {
    struct_name: &'static str,
    coverage: &'static [(Option<&'static str>, &'static str)],
    /// What the key is, for the finding message.
    key_desc: &'static str,
}

const TARGETS: &[Target] = &[
    Target {
        struct_name: "QueryParams",
        coverage: &[(Some("Query"), "to_json")],
        key_desc: "the canonical query serialization (`Query::to_json`)",
    },
    Target {
        struct_name: "SpecOverride",
        coverage: &[(Some("Query"), "to_json")],
        key_desc: "the canonical query serialization (`Query::to_json`)",
    },
    Target {
        struct_name: "Machine",
        coverage: &[(None, "machine_digest")],
        key_desc: "the machine spec digest (`machine_digest`)",
    },
];

/// A coverage fn's span: every token of its file between the signature
/// line and the end line, inclusive.
struct Span<'a> {
    file: &'a WsFile,
    toks: Vec<usize>,
}

impl Span<'_> {
    /// Does the span mention `name` as an identifier or as the full
    /// content of a string literal?
    fn mentions(&self, name: &str) -> bool {
        self.toks.iter().any(|&i| {
            let t = &self.file.tokens[i];
            match t.kind {
                TokKind::Ident | TokKind::RawIdent => {
                    t.text(&self.file.src).trim_start_matches("r#") == name
                }
                TokKind::Str => t.text(&self.file.src).trim_matches('"') == name,
                _ => false,
            }
        })
    }

    /// Does the span digest a whole value through `Debug` (`…:?…` format
    /// literal) while naming `ty` somewhere (parameter type, turbofish)?
    fn debug_digests(&self, ty: &str) -> bool {
        let mut has_debug_fmt = false;
        let mut names_ty = false;
        for &i in &self.toks {
            let t = &self.file.tokens[i];
            match t.kind {
                TokKind::Str if t.text(&self.file.src).contains(":?") => has_debug_fmt = true,
                TokKind::Ident if t.text(&self.file.src) == ty => names_ty = true,
                _ => {}
            }
        }
        has_debug_fmt && names_ty
    }
}

/// Prove every named field of the target structs flows into its cache-key
/// derivation; report the fields that do not.
pub fn findings(files: &[WsFile]) -> Vec<LintFinding> {
    let mut out = Vec::new();
    // Struct definitions by name (a target name should be unique; if a
    // test double duplicates it, every definition is held to the proof).
    let wanted: BTreeSet<&str> = TARGETS.iter().map(|t| t.struct_name).collect();
    let mut defs: Vec<(usize, crate::items::StructDef)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for def in struct_defs(&file.src, &file.tokens) {
            if wanted.contains(def.name.as_str()) {
                defs.push((fi, def));
            }
        }
    }
    if defs.is_empty() {
        return out;
    }

    for target in TARGETS {
        // Collect the coverage fn spans present in this file set.
        let mut spans: Vec<Span<'_>> = Vec::new();
        for file in files {
            for f in &file.items.fns {
                let matches_cov = target.coverage.iter().any(|(qual, name)| {
                    f.name == *name
                        && match qual {
                            Some(q) => f.qual.as_deref() == Some(*q),
                            None => f.qual.is_none(),
                        }
                });
                if !matches_cov || f.in_test {
                    continue;
                }
                let toks: Vec<usize> = (0..file.tokens.len())
                    .filter(|&i| {
                        let l = file.tokens[i].line;
                        l >= f.sig_line && l <= f.end_line
                    })
                    .collect();
                spans.push(Span { file, toks });
            }
        }
        if spans.is_empty() {
            // Single-file lint without the serializer: nothing to prove
            // against — the workspace run has both sides.
            continue;
        }
        for (fi, def) in defs.iter().filter(|(_, d)| d.name == target.struct_name) {
            let file = &files[*fi];
            let derives_debug = def.derives.contains("Debug");
            if derives_debug && spans.iter().any(|s| s.debug_digests(&def.name)) {
                continue; // whole-struct Debug digest covers every field
            }
            for field in &def.fields {
                if spans.iter().any(|s| s.mentions(&field.name)) {
                    continue;
                }
                if file.items.waived(Rule::KeyCoverage.id(), field.line) {
                    continue;
                }
                out.push(LintFinding {
                    rule: Rule::KeyCoverage,
                    path: file.path.clone(),
                    line: field.line,
                    message: format!(
                        "field `{}` of `{}` does not flow into {} — distinct configs differing only in `{}` would share one cache entry; render/hash the field or waive with a reason",
                        field.name, def.name, target.key_desc, field.name,
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::ws_file;

    fn single(src: &str) -> Vec<LintFinding> {
        findings(&[ws_file("crates/x/src/lib.rs", src)])
    }

    #[test]
    fn rendered_fields_pass_unrendered_field_fails() {
        let src = "\
pub struct QueryParams {
    pub profile: u32,
    pub seed: Option<u64>,
    pub burst: u32,
}
struct Query;
impl Query {
    pub fn to_json(&self, params: &QueryParams) -> String {
        format!(\"profile={} seed={:?}\", params.profile, params.seed)
    }
}
";
        let f = single(src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::KeyCoverage);
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("`burst`"), "{}", f[0].message);
    }

    #[test]
    fn string_literal_mention_counts() {
        let src = "\
pub struct SpecOverride {
    pub machine: String,
    pub value: f64,
}
struct Query;
impl Query {
    pub fn to_json(&self, o: &SpecOverride) -> String {
        let pairs = [(\"machine\", 1), (\"value\", 2)];
        format!(\"{pairs:?}\")
    }
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn debug_digest_covers_all_fields() {
        let src = "\
#[derive(Clone, Debug)]
pub struct Machine {
    pub name: &'static str,
    pub rank: u32,
}
pub fn machine_digest(m: &Machine) -> u64 {
    fnv1a64(format!(\"{m:?}\").as_bytes())
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn debug_digest_requires_the_derive() {
        // A `:?` literal without `#[derive(Debug)]` on the struct cannot
        // be digesting the struct itself — fall back to per-field proof.
        let src = "\
pub struct Machine {
    pub name: &'static str,
    pub rank: u32,
}
pub fn machine_digest(m: &Machine) -> u64 {
    fnv1a64(format!(\"{:?}\", m.name).as_bytes())
}
";
        let f = single(src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("`rank`"), "{}", f[0].message);
    }

    #[test]
    fn missing_coverage_fn_skips_the_target() {
        // machine.rs linted alone: the digest lives in another crate.
        let src = "\
#[derive(Clone, Debug)]
pub struct Machine {
    pub name: &'static str,
    pub rank: u32,
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn unrelated_to_json_cannot_vouch() {
        // A `to_json` outside `impl Query` mentioning the field name must
        // not satisfy the proof.
        let src = "\
pub struct QueryParams {
    pub profile: u32,
    pub burst: u32,
}
struct Query;
impl Query {
    pub fn to_json(&self, params: &QueryParams) -> String {
        format!(\"profile={}\", params.profile)
    }
}
struct Other;
impl Other {
    pub fn to_json(&self) -> String {
        String::from(\"burst\")
    }
}
";
        let f = single(src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("`burst`"), "{}", f[0].message);
    }

    #[test]
    fn waiver_at_the_field_suppresses() {
        let src = "\
pub struct QueryParams {
    pub profile: u32,
    // dessan::allow(key-coverage): derived presentation toggle, not a result input.
    pub pretty: bool,
}
struct Query;
impl Query {
    pub fn to_json(&self, params: &QueryParams) -> String {
        format!(\"profile={}\", params.profile)
    }
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn cross_file_struct_and_digest_pair_up() {
        let machine = "\
#[derive(Clone, Debug)]
pub struct Machine {
    pub name: &'static str,
    pub rank: u32,
}
";
        let digest = "\
pub fn machine_digest(m: &Machine) -> u64 {
    fnv1a64(format!(\"{m:?}\").as_bytes())
}
";
        let files = [
            ws_file("crates/machines/src/machine.rs", machine),
            ws_file("crates/core/src/query.rs", digest),
        ];
        assert!(findings(&files).is_empty());
    }
}
