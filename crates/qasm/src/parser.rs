//! OpenQASM 2.0 parsing.

use crate::QasmError;
use std::f64::consts::PI;
use trios_ir::{Circuit, Gate, Instruction, Qubit};

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// Supported surface: the `OPENQASM 2.0;` header, `include` (ignored),
/// any number of `qreg`/`creg` declarations (quantum registers are
/// flattened into one index space in declaration order), `gate`/`opaque`
/// declarations (bodies skipped — applications must still name gates this
/// library knows), `barrier` (ignored), `measure`, and gate applications
/// with parameter expressions over numbers, `pi`, `+ - * /` and
/// parentheses. Applying a one-qubit gate (or `measure`) to a bare
/// register name broadcasts it across the register.
///
/// # Errors
///
/// Returns a [`QasmError`] describing the line and cause: unsupported
/// version, syntax errors, unknown gates, arity mismatches, or references
/// to undeclared registers / out-of-range indices.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    Parser::new(source)?.run()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    Punct(char),
    Arrow,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "'{s}'"),
            Tok::Number(n) => write!(f, "number {n}"),
            Tok::Str(s) => write!(f, "string \"{s}\""),
            Tok::Punct(c) => write!(f, "'{c}'"),
            Tok::Arrow => write!(f, "'->'"),
        }
    }
}

fn tokenize(source: &str) -> Result<Vec<(usize, Tok)>, QasmError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '-' if bytes.get(i + 1) == Some(&'>') => {
                toks.push((line, Tok::Arrow));
                i += 2;
            }
            ';' | ',' | '(' | ')' | '[' | ']' | '{' | '}' | '+' | '-' | '*' | '/' => {
                toks.push((line, Tok::Punct(c)));
                i += 1;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '"' {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(QasmError::Unexpected {
                        line,
                        found: "end of file".into(),
                        expected: "closing '\"'".into(),
                    });
                }
                toks.push((line, Tok::Str(bytes[start..j].iter().collect())));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == '.'
                        || bytes[i] == 'e'
                        || bytes[i] == 'E'
                        || ((bytes[i] == '+' || bytes[i] == '-')
                            && matches!(bytes[i - 1], 'e' | 'E')))
                {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let value = text.parse::<f64>().map_err(|_| QasmError::Unexpected {
                    line,
                    found: format!("'{text}'"),
                    expected: "a number".into(),
                })?;
                toks.push((line, Tok::Number(value)));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                toks.push((line, Tok::Ident(bytes[start..i].iter().collect())));
            }
            other => {
                return Err(QasmError::Unexpected {
                    line,
                    found: format!("'{other}'"),
                    expected: "a token".into(),
                })
            }
        }
    }
    Ok(toks)
}

#[derive(Debug)]
struct Register {
    name: String,
    offset: usize,
    size: usize,
}

#[derive(Debug)]
struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    qregs: Vec<Register>,
    cregs: Vec<Register>,
    declared_gates: Vec<String>,
    /// Parentheses and unary minuses open in the current expression.
    depth: usize,
}

/// Deepest parameter-expression nesting the parser accepts. Expressions
/// parse by recursion, so without a bound a long run of `(` or `-` would
/// overflow the stack and abort the process.
const MAX_EXPR_DEPTH: usize = 64;

/// A parsed qubit argument: one qubit or a whole register (broadcast).
enum QubitArg {
    One(usize),
    Whole(usize, usize), // offset, size
}

impl Parser {
    fn new(source: &str) -> Result<Self, QasmError> {
        Ok(Parser {
            toks: tokenize(source)?,
            pos: 0,
            qregs: Vec::new(),
            cregs: Vec::new(),
            declared_gates: Vec::new(),
            depth: 0,
        })
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |(l, _)| *l)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn unexpected(&self, expected: &str) -> QasmError {
        QasmError::Unexpected {
            line: self.line(),
            found: self
                .toks
                .get(self.pos)
                .map_or("end of file".into(), |(_, t)| t.to_string()),
            expected: expected.into(),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), QasmError> {
        match self.peek() {
            Some(Tok::Punct(p)) if *p == c => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.unexpected(&format!("'{c}'"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, QasmError> {
        match self.peek() {
            Some(Tok::Ident(_)) => {
                let Some(Tok::Ident(s)) = self.next() else {
                    unreachable!()
                };
                Ok(s)
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn run(mut self) -> Result<Circuit, QasmError> {
        self.header()?;
        let mut instructions: Vec<Instruction> = Vec::new();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Ident(word) => match word.as_str() {
                    "include" => {
                        self.pos += 1;
                        match self.next() {
                            Some(Tok::Str(_)) => self.expect_punct(';')?,
                            _ => return Err(self.unexpected("an include path string")),
                        }
                    }
                    "qreg" => self.register_decl(true)?,
                    "creg" => self.register_decl(false)?,
                    "gate" => self.skip_gate_decl()?,
                    "opaque" => self.skip_until_semicolon()?,
                    "barrier" => self.skip_until_semicolon()?,
                    "if" => {
                        return Err(QasmError::Unexpected {
                            line: self.line(),
                            found: "'if'".into(),
                            expected: "an unconditional statement (classical control is \
                                       not supported)"
                                .into(),
                        })
                    }
                    "measure" => {
                        self.pos += 1;
                        self.measure_stmt(&mut instructions)?;
                    }
                    _ => self.gate_application(&mut instructions)?,
                },
                _ => return Err(self.unexpected("a statement")),
            }
        }
        let num_qubits = self.qregs.iter().map(|r| r.size).sum();
        Circuit::from_instructions(num_qubits, instructions).map_err(|e| QasmError::BadReference {
            line: 0,
            reference: e.to_string(),
        })
    }

    fn header(&mut self) -> Result<(), QasmError> {
        match self.next() {
            Some(Tok::Ident(w)) if w == "OPENQASM" => {}
            other => {
                return Err(QasmError::UnsupportedVersion {
                    found: other.map_or("empty file".into(), |t| t.to_string()),
                })
            }
        }
        match self.next() {
            Some(Tok::Number(v)) if (v - 2.0).abs() < 0.999 => {}
            other => {
                return Err(QasmError::UnsupportedVersion {
                    found: other.map_or("end of file".into(), |t| t.to_string()),
                })
            }
        }
        self.expect_punct(';')
    }

    fn register_decl(&mut self, quantum: bool) -> Result<(), QasmError> {
        self.pos += 1; // qreg / creg
        let name = self.expect_ident()?;
        self.expect_punct('[')?;
        let size = match self.next() {
            Some(Tok::Number(v)) if v >= 1.0 && v.fract() == 0.0 => v as usize,
            _ => return Err(self.unexpected("a positive register size")),
        };
        self.expect_punct(']')?;
        self.expect_punct(';')?;
        let regs = if quantum {
            &mut self.qregs
        } else {
            &mut self.cregs
        };
        let offset = regs.iter().map(|r| r.size).sum();
        regs.push(Register { name, offset, size });
        Ok(())
    }

    fn skip_gate_decl(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // gate
        let name = self.expect_ident()?;
        self.declared_gates.push(name);
        let mut depth = 0usize;
        loop {
            match self.next() {
                Some(Tok::Punct('{')) => depth += 1,
                Some(Tok::Punct('}')) => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Some(_) => {}
                None => return Err(self.unexpected("'}' closing the gate body")),
            }
        }
    }

    fn skip_until_semicolon(&mut self) -> Result<(), QasmError> {
        loop {
            match self.next() {
                Some(Tok::Punct(';')) => return Ok(()),
                Some(_) => {}
                None => return Err(self.unexpected("';'")),
            }
        }
    }

    fn measure_stmt(&mut self, out: &mut Vec<Instruction>) -> Result<(), QasmError> {
        let qarg = self.qubit_arg()?;
        match self.next() {
            Some(Tok::Arrow) => {}
            _ => return Err(self.unexpected("'->'")),
        }
        // Classical target: validate the reference, then discard (the IR
        // keeps measurement results implicitly aligned with qubits).
        let cname = self.expect_ident()?;
        let creg =
            self.cregs
                .iter()
                .find(|r| r.name == cname)
                .ok_or_else(|| QasmError::BadReference {
                    line: self.line(),
                    reference: format!("classical register '{cname}'"),
                })?;
        let creg_size = creg.size;
        if let Some(Tok::Punct('[')) = self.peek() {
            self.pos += 1;
            match self.next() {
                Some(Tok::Number(v)) if v.fract() == 0.0 && (v as usize) < creg_size => {}
                _ => {
                    return Err(QasmError::BadReference {
                        line: self.line(),
                        reference: format!("bit index into '{cname}[{creg_size}]'"),
                    })
                }
            }
            self.expect_punct(']')?;
        }
        self.expect_punct(';')?;
        match qarg {
            QubitArg::One(q) => {
                out.push(Instruction::new(Gate::Measure, &[Qubit::new(q)]));
            }
            QubitArg::Whole(offset, size) => {
                for q in offset..offset + size {
                    out.push(Instruction::new(Gate::Measure, &[Qubit::new(q)]));
                }
            }
        }
        Ok(())
    }

    fn gate_application(&mut self, out: &mut Vec<Instruction>) -> Result<(), QasmError> {
        let line = self.line();
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if let Some(Tok::Punct('(')) = self.peek() {
            self.pos += 1;
            if self.peek() != Some(&Tok::Punct(')')) {
                loop {
                    params.push(self.expression()?);
                    match self.peek() {
                        Some(Tok::Punct(',')) => self.pos += 1,
                        _ => break,
                    }
                }
            }
            self.expect_punct(')')?;
        }
        let mut args = vec![self.qubit_arg()?];
        while let Some(Tok::Punct(',')) = self.peek() {
            self.pos += 1;
            args.push(self.qubit_arg()?);
        }
        self.expect_punct(';')?;

        let gate = build_gate(&name, &params, args.len(), line, &self.declared_gates)?;
        match (&args[..], gate.arity()) {
            ([QubitArg::Whole(offset, size)], 1) => {
                for q in *offset..*offset + *size {
                    out.push(Instruction::new(gate, &[Qubit::new(q)]));
                }
                Ok(())
            }
            _ => {
                let mut qubits = Vec::with_capacity(args.len());
                for a in &args {
                    match a {
                        QubitArg::One(q) => qubits.push(Qubit::new(*q)),
                        QubitArg::Whole(..) => {
                            return Err(QasmError::Unexpected {
                                line,
                                found: "a whole-register argument".into(),
                                expected: "indexed qubits for a multi-qubit gate".into(),
                            })
                        }
                    }
                }
                if qubits.len() != gate.arity() {
                    return Err(QasmError::WrongArity {
                        line,
                        name,
                        expected: gate.arity(),
                        found: qubits.len(),
                    });
                }
                out.push(Instruction::new(gate, &qubits));
                Ok(())
            }
        }
    }

    fn qubit_arg(&mut self) -> Result<QubitArg, QasmError> {
        let name = self.expect_ident()?;
        let reg =
            self.qregs
                .iter()
                .find(|r| r.name == name)
                .ok_or_else(|| QasmError::BadReference {
                    line: self.line(),
                    reference: format!("quantum register '{name}'"),
                })?;
        let (offset, size) = (reg.offset, reg.size);
        if let Some(Tok::Punct('[')) = self.peek() {
            self.pos += 1;
            let idx = match self.next() {
                Some(Tok::Number(v)) if v.fract() == 0.0 && (v as usize) < size => v as usize,
                _ => {
                    return Err(QasmError::BadReference {
                        line: self.line(),
                        reference: format!("qubit index into '{name}[{size}]'"),
                    })
                }
            };
            self.expect_punct(']')?;
            Ok(QubitArg::One(offset + idx))
        } else {
            Ok(QubitArg::Whole(offset, size))
        }
    }

    /// Parses a parameter expression: `+ - * /`, unary minus, parentheses,
    /// numbers, and `pi`.
    fn expression(&mut self) -> Result<f64, QasmError> {
        let mut value = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Punct('+')) => {
                    self.pos += 1;
                    value += self.term()?;
                }
                Some(Tok::Punct('-')) => {
                    self.pos += 1;
                    value -= self.term()?;
                }
                _ => return Ok(value),
            }
        }
    }

    fn term(&mut self) -> Result<f64, QasmError> {
        let mut value = self.factor()?;
        loop {
            match self.peek() {
                Some(Tok::Punct('*')) => {
                    self.pos += 1;
                    value *= self.factor()?;
                }
                Some(Tok::Punct('/')) => {
                    self.pos += 1;
                    value /= self.factor()?;
                }
                _ => return Ok(value),
            }
        }
    }

    fn factor(&mut self) -> Result<f64, QasmError> {
        match self.next() {
            Some(Tok::Number(v)) => Ok(v),
            Some(Tok::Ident(w)) if w == "pi" => Ok(PI),
            Some(Tok::Punct('-')) => self.nested(|p| Ok(-p.factor()?)),
            Some(Tok::Punct('(')) => self.nested(|p| {
                let v = p.expression()?;
                p.expect_punct(')')?;
                Ok(v)
            }),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.unexpected("a parameter expression"))
            }
        }
    }

    /// Runs `parse` one expression level deeper, or errors past
    /// [`MAX_EXPR_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<f64, QasmError>,
    ) -> Result<f64, QasmError> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(QasmError::TooDeep {
                line: self.line(),
                limit: MAX_EXPR_DEPTH,
            });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }
}

/// Maps a QASM gate name and parameters to an IR gate.
fn build_gate(
    name: &str,
    params: &[f64],
    _args: usize,
    line: usize,
    declared: &[String],
) -> Result<Gate, QasmError> {
    let wrong_params = |expected: usize| QasmError::WrongArity {
        line,
        name: name.to_string(),
        expected,
        found: params.len(),
    };
    let fixed = |gate: Gate| {
        if params.is_empty() {
            Ok(gate)
        } else {
            Err(wrong_params(0))
        }
    };
    let one_param = |f: fn(f64) -> Gate| {
        if params.len() == 1 {
            Ok(f(params[0]))
        } else {
            Err(wrong_params(1))
        }
    };
    match name {
        "id" => fixed(Gate::I),
        "h" => fixed(Gate::H),
        "x" => fixed(Gate::X),
        "y" => fixed(Gate::Y),
        "z" => fixed(Gate::Z),
        "s" => fixed(Gate::S),
        "sdg" => fixed(Gate::Sdg),
        "t" => fixed(Gate::T),
        "tdg" => fixed(Gate::Tdg),
        "sx" => fixed(Gate::Sx),
        "sxdg" => fixed(Gate::Sxdg),
        "rx" => one_param(Gate::Rx),
        "ry" => one_param(Gate::Ry),
        "rz" => one_param(Gate::Rz),
        "u1" | "p" => one_param(Gate::U1),
        "u2" => {
            if params.len() == 2 {
                Ok(Gate::U2(params[0], params[1]))
            } else {
                Err(wrong_params(2))
            }
        }
        "u3" | "u" => {
            if params.len() == 3 {
                Ok(Gate::U3(params[0], params[1], params[2]))
            } else {
                Err(wrong_params(3))
            }
        }
        "xpow" => one_param(Gate::Xpow),
        "cxpow" => one_param(Gate::Cxpow),
        "cx" | "CX" => fixed(Gate::Cx),
        "cz" => fixed(Gate::Cz),
        "cp" | "cu1" => one_param(Gate::Cp),
        "swap" => fixed(Gate::Swap),
        "ccx" => fixed(Gate::Ccx),
        "ccz" => fixed(Gate::Ccz),
        "cswap" => fixed(Gate::Cswap),
        _ => Err(QasmError::UnknownGate {
            line,
            name: if declared.iter().any(|d| d == name) {
                format!("{name} (declared in-file, but custom gate bodies are not expanded)")
            } else {
                name.to_string()
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            h q[0];
            cx q[0], q[1];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.instructions()[0].gate(), Gate::H);
        assert_eq!(c.instructions()[1].gate(), Gate::Cx);
    }

    #[test]
    fn flattens_multiple_registers() {
        let src = "OPENQASM 2.0; qreg a[2]; qreg b[3]; cx a[1], b[0];";
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 5);
        let i = c.instructions()[0];
        assert_eq!(i.qubit(0).index(), 1);
        assert_eq!(i.qubit(1).index(), 2);
    }

    #[test]
    fn broadcasts_single_qubit_gates_over_registers() {
        let src = "OPENQASM 2.0; qreg q[3]; h q;";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|i| i.gate() == Gate::H));
    }

    #[test]
    fn broadcast_measure() {
        let src = "OPENQASM 2.0; qreg q[2]; creg c[2]; measure q -> c;";
        let c = parse(src).unwrap();
        assert_eq!(c.counts().measure, 2);
    }

    #[test]
    fn evaluates_parameter_expressions() {
        let src = "OPENQASM 2.0; qreg q[1]; rz(pi/2) q[0]; rz(-pi) q[0]; rz(2*(1+1)) q[0];";
        let c = parse(src).unwrap();
        let angles: Vec<f64> = c
            .iter()
            .map(|i| match i.gate() {
                Gate::Rz(a) => a,
                _ => unreachable!(),
            })
            .collect();
        assert!((angles[0] - PI / 2.0).abs() < 1e-15);
        assert!((angles[1] + PI).abs() < 1e-15);
        assert!((angles[2] - 4.0).abs() < 1e-15);
    }

    #[test]
    fn skips_gate_declarations_and_barriers() {
        let src = r#"
            OPENQASM 2.0;
            gate majority a, b, c { cx c, b; cx c, a; ccx a, b, c; }
            qreg q[3];
            barrier q;
            ccx q[0], q[1], q[2];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.instructions()[0].gate(), Gate::Ccx);
    }

    #[test]
    fn rejects_unknown_gates_and_undeclared_custom_bodies() {
        let src = "OPENQASM 2.0; qreg q[1]; frob q[0];";
        assert!(matches!(
            parse(src).unwrap_err(),
            QasmError::UnknownGate { name, .. } if name == "frob"
        ));
        let src = "OPENQASM 2.0; gate foo a { h a; } qreg q[1]; foo q[0];";
        assert!(matches!(
            parse(src).unwrap_err(),
            QasmError::UnknownGate { name, .. } if name.starts_with("foo")
        ));
    }

    #[test]
    fn rejects_bad_version() {
        assert!(matches!(
            parse("OPENQASM 3.0; qreg q[1];").unwrap_err(),
            QasmError::UnsupportedVersion { .. }
        ));
        assert!(matches!(
            parse("qreg q[1];").unwrap_err(),
            QasmError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn rejects_out_of_range_indices() {
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[2]; h q[5];").unwrap_err(),
            QasmError::BadReference { .. }
        ));
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[2]; cx q[0], r[0];").unwrap_err(),
            QasmError::BadReference { .. }
        ));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[3]; cx q[0], q[1], q[2];").unwrap_err(),
            QasmError::WrongArity { .. }
        ));
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[1]; rz q[0];").unwrap_err(),
            QasmError::WrongArity { .. }
        ));
    }

    #[test]
    fn rejects_classical_control() {
        let src = "OPENQASM 2.0; qreg q[1]; creg c[1]; if (c == 1) x q[0];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn measure_validates_classical_target() {
        let src = "OPENQASM 2.0; qreg q[1]; measure q[0] -> c[0];";
        assert!(matches!(
            parse(src).unwrap_err(),
            QasmError::BadReference { .. }
        ));
    }
}
