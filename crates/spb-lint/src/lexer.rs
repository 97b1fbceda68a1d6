//! A hand-rolled Rust lexer: just enough to tokenize the workspace
//! without external parser crates (the build environment is offline).
//!
//! The output is a stream of *code* tokens plus a separate list of
//! comments. Rules work on token adjacency (e.g. `.` `unwrap` `(`), so
//! string/char literals, lifetimes, and comments must never masquerade
//! as identifiers or punctuation — that is the whole job of this module.
//! It understands the full literal grammar that matters for not
//! mis-lexing: nested block comments, raw strings with `#` fences, byte
//! and C strings, raw identifiers, and the char-vs-lifetime ambiguity.

/// What a code token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`unwrap`, `fn`, `unsafe_code`, ...).
    Ident,
    /// Single punctuation character (`.`, `[`, `!`, ...).
    Punct,
    /// String literal of any flavor (`"..."`, `r#"..."#`, `b"..."`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One code token with its 1-based source line.
#[derive(Clone, Debug)]
pub(crate) struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text for `Ident`/`Punct`; empty for literals (rules never
    /// inspect literal contents).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment with the 1-based line it starts on. The text excludes
/// the `//` / `/*` markers.
#[derive(Clone, Debug)]
pub(crate) struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body without the delimiters.
    pub text: String,
}

/// A lexed file: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub(crate) struct LexFile {
    /// Code tokens (comments and whitespace stripped).
    pub toks: Vec<Tok>,
    /// All comments, for allow-marker parsing.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

std::thread_local! {
    /// Count of `lex` invocations on this thread. `run()` is
    /// single-threaded, so the single-pass invariant test can assert
    /// the delta over one run equals the number of files scanned
    /// (thread-local rather than a global atomic so parallel test
    /// binaries cannot interfere with each other).
    static LEX_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of times [`lex`] has run on the calling thread.
pub fn lex_count() -> u64 {
    LEX_CALLS.with(|c| c.get())
}

/// Tokenizes `src`. Unterminated literals are tolerated (the rest of
/// the file is swallowed into the literal) — the linter must not panic
/// on malformed fixtures.
pub(crate) fn lex(src: &str) -> LexFile {
    LEX_CALLS.with(|c| c.set(c.get() + 1));
    let chars: Vec<char> = src.chars().collect();
    let mut out = LexFile::default();
    let mut i = 0usize;
    let mut line = 1u32;

    // Advance over `chars[i..]` counting newlines; returns new index.
    let bump_lines = |from: usize, to: usize, chars: &[char], line: &mut u32| {
        for &c in &chars[from..to.min(chars.len())] {
            if c == '\n' {
                *line += 1;
            }
        }
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: chars[start..j].iter().collect(),
                });
                i = j;
                continue;
            }
            if chars[i + 1] == '*' {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '/' && j + 1 < chars.len() && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && j + 1 < chars.len() && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if chars[j] == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: chars[start..end.min(chars.len())].iter().collect(),
                });
                i = j;
                continue;
            }
        }
        // Identifiers, keywords, and string-literal prefixes.
        if is_ident_start(c) {
            let start = i;
            let mut j = i + 1;
            while j < chars.len() && is_ident_continue(chars[j]) {
                j += 1;
            }
            let word: String = chars[start..j].iter().collect();
            let next = chars.get(j).copied();
            // Raw strings and raw identifiers: r"...", r#"..."#, r#ident,
            // plus byte/C variants br"..." / cr"...".
            if matches!(word.as_str(), "r" | "br" | "cr") && matches!(next, Some('"') | Some('#')) {
                let mut k = j;
                let mut hashes = 0usize;
                while k < chars.len() && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < chars.len() && chars[k] == '"' {
                    // Raw string: scan for `"` followed by `hashes` hashes.
                    let body_start = k + 1;
                    let mut m = body_start;
                    'raw: while m < chars.len() {
                        if chars[m] == '"' {
                            let mut h = 0usize;
                            while h < hashes && chars[m + 1 + h..].first() == Some(&'#') {
                                h += 1;
                            }
                            if h == hashes {
                                m += 1 + hashes;
                                break 'raw;
                            }
                        }
                        m += 1;
                    }
                    let tok_line = line;
                    bump_lines(body_start, m, &chars, &mut line);
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: tok_line,
                    });
                    i = m;
                    continue;
                }
                if word == "r" && hashes == 1 && k < chars.len() && is_ident_start(chars[k]) {
                    // Raw identifier r#name: emit the bare name.
                    let mut m = k + 1;
                    while m < chars.len() && is_ident_continue(chars[m]) {
                        m += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Ident,
                        text: chars[k..m].iter().collect(),
                        line,
                    });
                    i = m;
                    continue;
                }
                // `r # something-else` — fall through as plain ident.
            }
            if matches!(word.as_str(), "b" | "c") && next == Some('"') {
                let (m, tok_line) = scan_quoted(&chars, j, '"', &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: tok_line,
                });
                i = m;
                continue;
            }
            if word == "b" && next == Some('\'') {
                let (m, tok_line) = scan_quoted(&chars, j, '\'', &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tok_line,
                });
                i = m;
                continue;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: word,
                line,
            });
            i = j;
            continue;
        }
        // Numbers (approximate: good enough for adjacency rules).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            loop {
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                // One decimal point, only when followed by a digit, so
                // `0..len` lexes as Num `..` Ident.
                if j + 1 < chars.len() && chars[j] == '.' && chars[j + 1].is_ascii_digit() {
                    j += 1;
                    continue;
                }
                break;
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: String::new(),
                line,
            });
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let n1 = chars.get(i + 1).copied();
            if let Some(n1c) = n1 {
                if n1c == '\\' {
                    let (m, tok_line) = scan_quoted(&chars, i, '\'', &mut line);
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line: tok_line,
                    });
                    i = m;
                    continue;
                }
                if is_ident_start(n1c) && chars.get(i + 2).copied() != Some('\'') {
                    // Lifetime: `'a`, `'static`.
                    let mut j = i + 2;
                    while j < chars.len() && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: String::new(),
                        line,
                    });
                    i = j;
                    continue;
                }
                // `'x'` (including non-identifier chars like `'.'`).
                let (m, tok_line) = scan_quoted(&chars, i, '\'', &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tok_line,
                });
                i = m;
                continue;
            }
            i += 1;
            continue;
        }
        if c == '"' {
            let (m, tok_line) = scan_quoted(&chars, i, '"', &mut line);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line: tok_line,
            });
            i = m;
            continue;
        }
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Scans a `quote`-delimited literal starting at the opening quote
/// `chars[open]`, honoring `\` escapes and counting newlines into
/// `line`. Returns `(index past the closing quote, line the literal
/// started on)`.
fn scan_quoted(chars: &[char], open: usize, quote: char, line: &mut u32) -> (usize, u32) {
    let start_line = *line;
    let mut j = open + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            c if c == quote => return (j + 1, start_line),
            _ => j += 1,
        }
    }
    (j, start_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let s = "unwrap panic unsafe";"#), ["let", "s"]);
        assert_eq!(
            idents(r##"let s = r#"unsafe "quoted" unwrap"#;"##),
            ["let", "s"]
        );
        assert_eq!(idents(r#"let b = b"unsafe";"#), ["let", "b"]);
    }

    #[test]
    fn comments_are_separated_from_code() {
        let f = lex("x // unsafe here\n/* unwrap\n/* nested */ still */ y");
        let ids: Vec<_> = f.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(ids, ["x", "y"]);
        assert_eq!(f.comments.len(), 2);
        assert!(f.comments[0].text.contains("unsafe here"));
        assert!(f.comments[1].text.contains("nested"));
        assert_eq!(f.toks[1].line, 3);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let f = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = f
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars_ = f.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars_, 1);
    }

    #[test]
    fn char_escapes_do_not_derail() {
        let f = lex(r"let c = '\n'; let q = '\''; after");
        assert!(f.toks.iter().any(|t| t.text == "after"));
    }

    #[test]
    fn raw_identifiers_yield_bare_name() {
        assert_eq!(idents("r#match + other"), ["match", "other"]);
    }

    #[test]
    fn numbers_and_ranges() {
        let f = lex("a[0..1.5e3]");
        let kinds: Vec<_> = f.toks.iter().map(|t| t.kind).collect();
        // a [ 0 . . 1.5e3 ]
        assert_eq!(
            kinds,
            [
                TokKind::Ident,
                TokKind::Punct,
                TokKind::Num,
                TokKind::Punct,
                TokKind::Punct,
                TokKind::Num,
                TokKind::Punct
            ]
        );
    }

    #[test]
    fn lines_are_tracked_through_literals() {
        let f = lex("\"a\nb\"\nx");
        let x = f.toks.iter().find(|t| t.text == "x").unwrap();
        assert_eq!(x.line, 3);
    }
}
