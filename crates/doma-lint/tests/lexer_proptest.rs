//! Property tests for the lint lexer and the cfg(test) mask (satellites
//! of the token-engine PR):
//!
//! 1. **Span round-trip** — for random token soup (identifiers,
//!    numbers, strings, raw strings, char/lifetime quotes, comments,
//!    balanced delimiters, glued operators, random separators), every
//!    lexed token's `text` is exactly `src[start..start + len]`, tokens
//!    never overlap, and each token's `line:col` matches an independent
//!    recount of the prefix. The lexer never panics on any soup.
//! 2. **Masked regions are invisible** — a randomly generated
//!    `#[cfg(test)]` module stuffed with rule violations (`partial_cmp`
//!    calls, re-entrant locks, uncatalogued metric and span names)
//!    produces zero findings when run through the full engine. (The site
//!    rules read unstripped trees on purpose; none of these violations
//!    is a site-rule needle in `doma-obs`.)
//!
//! Failures print a `DOMA_PROP_SEED=…` replay line via the testkit
//! harness.

use doma_lint::engine::{SourceFile, Workspace};
use doma_lint::lex::lex;
use doma_testkit::property::{self as prop, Gen};
use doma_testkit::TestRng;

/// Source-level pieces the soup is assembled from. Each is a valid
/// token (or comment) on its own; adjacency without separators is
/// allowed and may merge or re-split tokens — the span invariant must
/// hold regardless.
const PIECES: &[&str] = &[
    "ident",
    "x9_",
    "_",
    "r#match",
    "0",
    "12_345",
    "0.5",
    "1e-3",
    "1.5e+7",
    "0xfe",
    "0..n",
    "\"str \\\" escaped\"",
    "\"\"",
    "b\"bytes\"",
    "r\"raw\"",
    "r#\"raw \" inner\"#",
    "br#\"raw bytes\"#",
    "'a'",
    "'\\n'",
    "b'x'",
    "'static",
    "'_",
    "// line comment",
    "/* block /* nested */ comment */",
    "::",
    "=>",
    "..",
    "->",
    "==",
    "&&",
    "#",
    "!",
    ";",
    ",",
    ".",
    "=",
    "<",
    ">",
    "&",
    "|",
    "@",
    "?",
];

const SEPARATORS: &[&str] = &[" ", "\n", "  ", "\t", "\n\n", " "];

/// A random token soup with balanced delimiters.
struct SoupGen;

impl Gen for SoupGen {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut src = String::new();
        let mut stack: Vec<char> = Vec::new();
        let n = prop::range(1usize..80).generate(rng);
        for _ in 0..n {
            match prop::range(0usize..10).generate(rng) {
                // Open a delimiter.
                0 | 1 => {
                    let (open, close) =
                        [('(', ')'), ('[', ']'), ('{', '}')][prop::range(0usize..3).generate(rng)];
                    src.push(open);
                    stack.push(close);
                }
                // Close the innermost open delimiter.
                2 if !stack.is_empty() => {
                    src.push(stack.pop().unwrap_or(')'));
                }
                _ => {
                    src.push_str(PIECES[prop::range(0usize..PIECES.len()).generate(rng)]);
                }
            }
            src.push_str(SEPARATORS[prop::range(0usize..SEPARATORS.len()).generate(rng)]);
        }
        while let Some(close) = stack.pop() {
            src.push(close);
        }
        src.push('\n');
        src
    }
}

doma_testkit::property! {
    #[cases(192)]
    /// Every token's span is exact, tokens are ordered and disjoint,
    /// and line/col agree with an independent recount.
    fn lexed_spans_round_trip(src in SoupGen) {
        let tokens = lex(&src);
        let mut prev_end = 0usize;
        for t in &tokens {
            let end = t.start + t.text.len();
            assert!(
                t.start >= prev_end && end <= src.len(),
                "overlap or overrun at {}:{} in {src:?}",
                t.line,
                t.col
            );
            assert_eq!(&src[t.start..end], t.text, "span drift in {src:?}");
            // Recount line/col from the prefix.
            let prefix = &src[..t.start];
            let line = 1 + prefix.matches('\n').count() as u32;
            let col = 1 + prefix
                .rsplit('\n')
                .next()
                .unwrap_or("")
                .chars()
                .count() as u32;
            assert_eq!((t.line, t.col), (line, col), "position drift in {src:?}");
            prev_end = end;
        }
    }
}

/// Violation statements that every masked rule would flag in live code
/// of `doma-obs` (a determinism, lock-order and obs/span-catalog crate).
const VIOLATIONS: &[&str] = &[
    "let c = x.partial_cmp(&y);",
    "let g1 = self.q.lock(); let g2 = self.q.lock();",
    "reg.counter(\"rogue\", \"metric\", &[]);",
    "let s = span!(log, 1, \"rogue.span\");",
];

/// A `#[cfg(test)]` module (sometimes nested inside a live module)
/// stuffed with violations.
struct MaskedGen;

impl Gen for MaskedGen {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let count = prop::range(1usize..6).generate(rng);
        let body: String = (0..count)
            .map(|_| VIOLATIONS[prop::range(0usize..VIOLATIONS.len()).generate(rng)])
            .collect::<Vec<_>>()
            .join("\n        ");
        let module = format!(
            "#[cfg(test)]\nmod tests {{\n    fn t(msg: DomMsg) {{\n        {body}\n    }}\n}}\n"
        );
        if prop::bools().generate(rng) {
            format!("pub fn live() -> u8 {{ 7 }}\n{module}")
        } else {
            format!("mod outer {{\n{module}}}\npub fn live() -> u8 {{ 7 }}\n")
        }
    }
}

doma_testkit::property! {
    #[cases(96)]
    /// `#[cfg(test)]`-gated violations are invisible to the catalog
    /// rules — the mask works at any nesting depth.
    fn masked_test_regions_never_produce_findings(src in MaskedGen) {
        let ws = Workspace {
            files: vec![SourceFile {
                path: "crates/doma-obs/src/gen.rs".to_string(),
                crate_name: "doma-obs".to_string(),
                text: src.clone(),
            }],
            ..Workspace::default()
        };
        let report = doma_lint::run(&ws);
        assert!(
            report.findings.is_empty(),
            "masked violations leaked: {:?}\n---\n{src}",
            report.findings
        );
    }
}
