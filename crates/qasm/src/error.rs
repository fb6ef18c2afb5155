//! Parse errors.

use std::error::Error;
use std::fmt;

/// An error encountered while parsing OpenQASM 2.0 source.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmError {
    /// The source did not start with a supported `OPENQASM` version.
    UnsupportedVersion {
        /// The version string found (or a description of what was found).
        found: String,
    },
    /// A token that does not fit the grammar at this position.
    Unexpected {
        /// 1-based line number.
        line: usize,
        /// What the parser found.
        found: String,
        /// What it was expecting.
        expected: String,
    },
    /// A gate application naming a gate this library does not know.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// The gate name.
        name: String,
    },
    /// A gate applied with the wrong number of qubits or parameters.
    WrongArity {
        /// 1-based line number.
        line: usize,
        /// The gate name.
        name: String,
        /// Expected operand or parameter count.
        expected: usize,
        /// Found operand or parameter count.
        found: usize,
    },
    /// A reference to an undeclared register or an out-of-range index.
    BadReference {
        /// 1-based line number.
        line: usize,
        /// Description of the reference.
        reference: String,
    },
    /// A parameter expression nested (parentheses or unary minus) deeper
    /// than the parser's limit.
    TooDeep {
        /// 1-based line number.
        line: usize,
        /// The deepest nesting accepted.
        limit: usize,
    },
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmError::UnsupportedVersion { found } => {
                write!(f, "unsupported OpenQASM version: {found}")
            }
            QasmError::Unexpected {
                line,
                found,
                expected,
            } => write!(f, "line {line}: expected {expected}, found {found}"),
            QasmError::UnknownGate { line, name } => {
                write!(f, "line {line}: unknown gate '{name}'")
            }
            QasmError::WrongArity {
                line,
                name,
                expected,
                found,
            } => write!(
                f,
                "line {line}: gate '{name}' takes {expected} arguments, found {found}"
            ),
            QasmError::BadReference { line, reference } => {
                write!(f, "line {line}: invalid reference {reference}")
            }
            QasmError::TooDeep { line, limit } => write!(
                f,
                "line {line}: parameter expression nested deeper than {limit} levels"
            ),
        }
    }
}

impl Error for QasmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = QasmError::UnknownGate {
            line: 4,
            name: "frobnicate".into(),
        };
        assert!(e.to_string().contains("line 4"));
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(QasmError::UnsupportedVersion {
            found: "3.0".into(),
        });
    }
}
