//! Error types shared by the lexer, parser and semantic analysis.

use std::fmt;

use crate::span::Span;

/// Convenience alias used throughout the front end.
pub type LangResult<T> = Result<T, LangError>;

/// Any error produced while turning source text into a checked AST.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    /// The lexer hit a character it does not understand.
    UnexpectedChar { ch: char, span: Span },
    /// A numeric literal could not be parsed.
    BadNumber { text: String, span: Span },
    /// A `.OP.`-style operator was malformed.
    BadDotOperator { text: String, span: Span },
    /// The parser found a token it did not expect.
    UnexpectedToken {
        found: String,
        expected: String,
        span: Span,
    },
    /// A `DO` loop's terminating label was never found.
    UnterminatedDo { label: u32, span: Span },
    /// A statement label was used inconsistently.
    LabelMismatch {
        expected: u32,
        found: u32,
        span: Span,
    },
    /// Input ended in the middle of a construct.
    UnexpectedEof { expected: String },
    /// Semantic error: an array was used but never declared.
    UndeclaredArray { name: String, span: Span },
    /// Semantic error: an array was referenced with the wrong rank.
    RankMismatch {
        name: String,
        declared: usize,
        used: usize,
        span: Span,
    },
    /// Semantic error: a `PARAMETER` constant is missing.
    UnknownParameter { name: String, span: Span },
    /// Semantic error: an array extent is not a positive constant.
    BadExtent { name: String, span: Span },
    /// Semantic error: the same name was declared twice.
    DuplicateDeclaration { name: String, span: Span },
    /// Semantic error: this array takes the program's declared elements
    /// past the cap of `1 << 24`.
    TooLarge { name: String, span: Span },
    /// A directive line (`!MD$ ...`) was malformed.
    BadDirective { reason: String, span: Span },
}

impl LangError {
    /// Returns the source span the error points at, if it has one.
    pub fn span(&self) -> Option<Span> {
        match self {
            LangError::UnexpectedChar { span, .. }
            | LangError::BadNumber { span, .. }
            | LangError::BadDotOperator { span, .. }
            | LangError::UnexpectedToken { span, .. }
            | LangError::UnterminatedDo { span, .. }
            | LangError::LabelMismatch { span, .. }
            | LangError::UndeclaredArray { span, .. }
            | LangError::RankMismatch { span, .. }
            | LangError::UnknownParameter { span, .. }
            | LangError::BadExtent { span, .. }
            | LangError::DuplicateDeclaration { span, .. }
            | LangError::TooLarge { span, .. }
            | LangError::BadDirective { span, .. } => Some(*span),
            LangError::UnexpectedEof { .. } => None,
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::UnexpectedChar { ch, span } => {
                write!(f, "{span}: unexpected character {ch:?}")
            }
            LangError::BadNumber { text, span } => {
                write!(f, "{span}: malformed numeric literal `{text}`")
            }
            LangError::BadDotOperator { text, span } => {
                write!(f, "{span}: malformed dot operator `{text}`")
            }
            LangError::UnexpectedToken {
                found,
                expected,
                span,
            } => {
                write!(f, "{span}: expected {expected}, found {found}")
            }
            LangError::UnterminatedDo { label, span } => {
                write!(
                    f,
                    "{span}: DO loop terminated by label {label} never closed"
                )
            }
            LangError::LabelMismatch {
                expected,
                found,
                span,
            } => {
                write!(
                    f,
                    "{span}: expected statement label {expected}, found {found}"
                )
            }
            LangError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            LangError::UndeclaredArray { name, span } => {
                write!(f, "{span}: array `{name}` referenced but never declared")
            }
            LangError::RankMismatch {
                name,
                declared,
                used,
                span,
            } => {
                write!(
                    f,
                    "{span}: array `{name}` declared with rank {declared} but used with {used} subscripts"
                )
            }
            LangError::UnknownParameter { name, span } => {
                write!(f, "{span}: unknown PARAMETER constant `{name}`")
            }
            LangError::BadExtent { name, span } => {
                write!(
                    f,
                    "{span}: array `{name}` has a non-positive or non-constant extent"
                )
            }
            LangError::DuplicateDeclaration { name, span } => {
                write!(f, "{span}: `{name}` declared more than once")
            }
            LangError::TooLarge { name, span } => {
                write!(
                    f,
                    "{span}: array `{name}` takes the declared elements past the limit of {}",
                    crate::sema::MAX_ELEMENTS
                )
            }
            LangError::BadDirective { reason, span } => {
                write!(f, "{span}: malformed memory directive: {reason}")
            }
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_line() {
        let e = LangError::UndeclaredArray {
            name: "A".into(),
            span: Span::new(0, 1, 12),
        };
        let msg = e.to_string();
        assert!(msg.contains("line 12"), "{msg}");
        assert!(msg.contains('A'));
    }

    #[test]
    fn span_accessor() {
        let e = LangError::UnexpectedEof {
            expected: "END".into(),
        };
        assert!(e.span().is_none());
        let e = LangError::BadNumber {
            text: "1e".into(),
            span: Span::new(3, 5, 2),
        };
        assert_eq!(e.span().unwrap().line, 2);
    }
}
