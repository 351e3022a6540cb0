//! Spans and diagnostics for the CloudTalk language.

use std::fmt;

/// A half-open byte range into the query source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub(crate) start: usize,
    /// Byte offset one past the last character.
    pub(crate) end: usize,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// Returns the smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// A zero-width span, used for synthesized nodes.
    pub const DUMMY: Span = Span { start: 0, end: 0 };
}

/// An error produced while lexing, parsing, or validating a query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LangError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Location in the source text, when known.
    pub span: Span,
}

impl LangError {
    /// Creates an error anchored at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        LangError {
            message: message.into(),
            span,
        }
    }

    /// Renders the error with a line/column header and a caret line, e.g.:
    ///
    /// ```text
    /// error at 2:6: expected '->'
    ///   f1 A >- vm1 size 256M
    ///        ^^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let (line_no, col, line) = locate(source, self.span.start);
        let width = (self.span.end.saturating_sub(self.span.start)).max(1);
        let caret = " ".repeat(col.saturating_sub(1)) + &"^".repeat(width.min(line.len() + 1));
        format!(
            "error at {line_no}:{col}: {}\n  {line}\n  {caret}",
            self.message
        )
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (at bytes {}..{})",
            self.message, self.span.start, self.span.end
        )
    }
}

impl std::error::Error for LangError {}

/// Returns `(line_number, column, line_text)` for a byte offset (1-based).
fn locate(source: &str, offset: usize) -> (usize, usize, &str) {
    let offset = offset.min(source.len());
    let before = &source[..offset];
    let line_no = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[offset..]
        .find('\n')
        .map_or(source.len(), |i| offset + i);
    (line_no, offset - line_start + 1, &source[line_start..line_end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 5);
        let b = Span::new(10, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }

    #[test]
    fn render_points_at_offending_text() {
        let src = "A = (a b)\nf1 A >- vm1";
        let err = LangError::new("expected '->'", Span::new(15, 17));
        let rendered = err.render(src);
        assert!(rendered.contains("error at 2:6"), "{rendered}");
        assert!(rendered.contains("f1 A >- vm1"));
        assert!(rendered.lines().last().unwrap().contains("^^"));
    }

    #[test]
    fn locate_handles_offsets_past_end() {
        let err = LangError::new("unexpected end of input", Span::new(99, 99));
        // Must not panic.
        let _ = err.render("short");
    }
}
