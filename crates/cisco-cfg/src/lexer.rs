//! Line-oriented lexing for IOS configurations.
//!
//! IOS configs are a sequence of lines. Block structure is implied by
//! mode-entering commands, not by indentation, and a line starting with
//! `!` is a comment. The lexer produces [`ConfigLine`]s: the 1-based line
//! number, the trimmed text and the whitespace-split words. Nothing is
//! copied: every line's text and words borrow the input, and the words of
//! all lines share one buffer that [`lex`] fills once per input. The
//! parser never touches raw text again except to echo offending lines
//! into warnings.

use std::borrow::Cow;

/// One meaningful line of configuration, borrowed from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigLine<'a> {
    /// 1-based source line number.
    pub number: usize,
    /// The trimmed original text (for warnings and raw retention).
    pub text: &'a str,
    /// Whitespace-separated words.
    pub words: &'a [&'a str],
}

impl<'a> ConfigLine<'a> {
    /// The first word, lowercased — the command keyword. Borrowed unless
    /// the word has upper-case letters.
    pub fn keyword(&self) -> Cow<'a, str> {
        self.word_lower(0).unwrap_or_default()
    }

    /// Word at index `i`, if present.
    pub fn word(&self, i: usize) -> Option<&'a str> {
        self.words.get(i).copied()
    }

    /// Word at index `i` in ASCII lower case, if present. Borrowed unless
    /// the word has upper-case letters.
    pub fn word_lower(&self, i: usize) -> Option<Cow<'a, str>> {
        let w = self.word(i)?;
        Some(if w.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(w.to_ascii_lowercase())
        } else {
            Cow::Borrowed(w)
        })
    }

    /// Joins words from index `i` to the end (e.g. description text).
    pub fn rest(&self, i: usize) -> String {
        self.words[i.min(self.words.len())..].join(" ")
    }

    /// Whether the line starts with the given words (case-insensitive).
    pub fn starts_with(&self, prefix: &[&str]) -> bool {
        prefix.len() <= self.words.len()
            && prefix
                .iter()
                .zip(self.words)
                .all(|(p, w)| w.eq_ignore_ascii_case(p))
    }
}

/// The meaningful lines of one input: blanks and `!` comment lines are
/// dropped. A `!` line changes no parser mode; IOS treats it as a comment
/// too, so a block continues past it.
#[derive(Debug, Clone)]
pub struct LexOutput<'a> {
    /// The words of every line, in order.
    words: Vec<&'a str>,
    /// Per line: its number, its trimmed text and the end of its words in
    /// `words` (each line's words start where the previous line's end).
    lines: Vec<(usize, &'a str, usize)>,
}

impl<'a> LexOutput<'a> {
    /// The meaningful lines, in order.
    pub fn lines(&self) -> impl ExactSizeIterator<Item = ConfigLine<'_>> {
        let mut start = 0;
        self.lines.iter().map(move |&(number, text, end)| {
            let words = &self.words[start..end];
            start = end;
            ConfigLine {
                number,
                text,
                words,
            }
        })
    }
}

/// Lexes an IOS config into lines.
pub fn lex(input: &str) -> LexOutput<'_> {
    // Room for a word every four bytes and a line every sixteen: more
    // than generated configs need, so neither buffer grows on them.
    let mut out = LexOutput {
        words: Vec::with_capacity(input.len() / 4),
        lines: Vec::with_capacity(input.len() / 16),
    };
    for (idx, raw) in input.lines().enumerate() {
        let text = raw.trim();
        if text.is_empty() || text.starts_with('!') {
            continue;
        }
        out.words.extend(text.split_whitespace());
        out.lines.push((idx + 1, text, out.words.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(input: &str, f: impl FnOnce(ConfigLine<'_>)) {
        f(lex(input).lines().next().expect("one line"));
    }

    #[test]
    fn lex_skips_blanks_and_comments() {
        let out = lex("hostname r1\n\n! comment\n!\ninterface Ethernet0/1\n ip address 1.2.3.4 255.255.255.0\n");
        let numbers: Vec<usize> = out.lines().map(|l| l.number).collect();
        assert_eq!(numbers, vec![1, 5, 6]);
    }

    #[test]
    fn keyword_is_lowercased() {
        first("Interface Ethernet0/1\n", |l| {
            assert_eq!(l.keyword(), "interface");
            assert!(matches!(l.keyword(), Cow::Owned(_)));
            assert_eq!(l.word(1), Some("Ethernet0/1"));
        });
        first("interface Ethernet0/1\n", |l| {
            assert!(matches!(l.keyword(), Cow::Borrowed("interface")));
            assert_eq!(l.word_lower(1).as_deref(), Some("ethernet0/1"));
            assert_eq!(l.word_lower(2), None);
        });
    }

    #[test]
    fn rest_joins_tail() {
        first("description link to ISP core\n", |l| {
            assert_eq!(l.rest(1), "link to ISP core");
            assert_eq!(l.rest(99), "");
        });
    }

    #[test]
    fn starts_with_is_case_insensitive() {
        first("Router BGP 100\n", |l| {
            assert!(l.starts_with(&["router", "bgp"]));
            assert!(!l.starts_with(&["router", "ospf"]));
            assert!(!l.starts_with(&["router", "bgp", "100", "x"]));
        });
    }

    #[test]
    fn text_preserves_original_spelling() {
        first("  Match Community 100:1\n", |l| {
            assert_eq!(l.text, "Match Community 100:1")
        });
    }

    #[test]
    fn lines_slice_one_word_buffer() {
        let out = lex("a b\r\n\tc  d e\n!\n\nf\n");
        let lines: Vec<ConfigLine<'_>> = out.lines().collect();
        let words: Vec<&[&str]> = lines.iter().map(|l| l.words).collect();
        assert_eq!(words, vec![&["a", "b"][..], &["c", "d", "e"], &["f"]]);
        assert_eq!(lines[1].text, "c  d e");
        assert_eq!(out.words.len(), 6);
    }
}
