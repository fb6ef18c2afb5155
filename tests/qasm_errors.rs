//! Malformed-QASM corpus: every broken input must surface as the
//! *specific* [`QasmError`] variant describing it — never a panic, and
//! never a misleading catch-all. This is the parser half of the
//! adversarial-input story: the fuzz harness feeds the compiler
//! generated circuits, and this corpus feeds the front end generated
//! garbage.

use orchestrated_trios::qasm::{parse, QasmError};

#[test]
fn truncated_headers_are_unsupported_version_errors() {
    for source in [
        "",
        "OPENQASM",
        "OPENQASM;",
        "qreg q[2];",
        "// only a comment\n",
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::UnsupportedVersion { .. })),
            "source {source:?} should be UnsupportedVersion, got {:?}",
            parse(source)
        );
    }
    // A wrong version number is also an UnsupportedVersion, and the
    // message names what was found.
    let err = parse("OPENQASM 3.0;\nqreg q[2];").unwrap_err();
    assert!(matches!(err, QasmError::UnsupportedVersion { .. }));
    assert!(err.to_string().contains('3'), "{err}");
}

#[test]
fn truncated_statements_are_unexpected_token_errors() {
    for source in [
        "OPENQASM 2.0;\nqreg q[2",              // register never closed
        "OPENQASM 2.0;\nqreg q[2;",             // missing ']'
        "OPENQASM 2.0;\nqreg q[2]; h q[0]",     // missing ';'
        "OPENQASM 2.0;\ninclude",               // include without a path
        "OPENQASM 2.0;\nqreg q[1]; rz( q[0];",  // unclosed parameter list
        "OPENQASM 2.0;\ngate foo a { h a;",     // gate body never closed
        "OPENQASM 2.0;\nqreg q[1]; \"dangling", // unterminated string
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::Unexpected { .. })),
            "source {source:?} should be Unexpected, got {:?}",
            parse(source)
        );
    }
}

#[test]
fn unexpected_errors_carry_line_numbers() {
    let source = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1\n";
    match parse(source).unwrap_err() {
        QasmError::Unexpected { line, .. } => {
            assert_eq!(line, 4, "error should point at the broken line")
        }
        other => panic!("expected Unexpected, got {other:?}"),
    }
}

#[test]
fn unknown_gates_name_the_offender() {
    let err = parse("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];").unwrap_err();
    match &err {
        QasmError::UnknownGate { line, name } => {
            assert_eq!(*line, 3);
            assert_eq!(name, "frobnicate");
        }
        other => panic!("expected UnknownGate, got {other:?}"),
    }
    // A gate declared in-file but applied is still unknown (bodies are
    // not expanded), and the message says so.
    let err = parse("OPENQASM 2.0;\ngate foo a { h a; }\nqreg q[1];\nfoo q[0];").unwrap_err();
    match &err {
        QasmError::UnknownGate { name, .. } => {
            assert!(name.contains("declared in-file"), "{name}")
        }
        other => panic!("expected UnknownGate, got {other:?}"),
    }
}

#[test]
fn bad_register_indices_are_bad_references() {
    for source in [
        "OPENQASM 2.0;\nqreg q[2];\nh q[2];",        // index == size
        "OPENQASM 2.0;\nqreg q[2];\nh q[99];",       // far out of range
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[0];", // undeclared register
        "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];", // undeclared creg
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[5];", // creg index
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::BadReference { .. })),
            "source {source:?} should be BadReference, got {:?}",
            parse(source)
        );
    }
    // The reference description names the register.
    let err = parse("OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[0];").unwrap_err();
    assert!(err.to_string().contains("'r'"), "{err}");
}

#[test]
fn arity_mismatches_are_wrong_arity_errors() {
    for source in [
        "OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[1], q[2];", // too many qubits
        "OPENQASM 2.0;\nqreg q[3];\nccx q[0], q[1];",      // too few qubits
        "OPENQASM 2.0;\nqreg q[1];\nrz q[0];",             // missing parameter
        "OPENQASM 2.0;\nqreg q[1];\nh(0.5) q[0];",         // spurious parameter
        "OPENQASM 2.0;\nqreg q[1];\nu3(1.0, 2.0) q[0];",   // wrong param count
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::WrongArity { .. })),
            "source {source:?} should be WrongArity, got {:?}",
            parse(source)
        );
    }
    let err = parse("OPENQASM 2.0;\nqreg q[3];\nccx q[0], q[1];").unwrap_err();
    match err {
        QasmError::WrongArity {
            line,
            name,
            expected,
            found,
        } => {
            assert_eq!((line, name.as_str(), expected, found), (3, "ccx", 3, 2));
        }
        other => panic!("expected WrongArity, got {other:?}"),
    }
}

#[test]
fn duplicate_register_names_shadow_consistently_or_error() {
    // Two qregs with the same name: the parser keeps both declarations in
    // one flattened index space and resolves references to the first
    // match, so indices past the first register's size are BadReference —
    // pinned here so a future rewrite fails loudly if it changes.
    let source = "OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\nh q[3];";
    assert!(
        matches!(parse(source), Err(QasmError::BadReference { .. })),
        "got {:?}",
        parse(source)
    );
    // In-range references to the shadowed name still parse.
    let ok = parse("OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\nh q[1];").unwrap();
    assert_eq!(ok.num_qubits(), 4, "both registers occupy the index space");
}

#[test]
fn classical_control_and_degenerate_registers_are_rejected() {
    assert!(matches!(
        parse("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) x q[0];"),
        Err(QasmError::Unexpected { .. })
    ));
    for source in [
        "OPENQASM 2.0;\nqreg q[0];",   // zero-size register
        "OPENQASM 2.0;\nqreg q[-1];",  // negative size
        "OPENQASM 2.0;\nqreg q[1.5];", // fractional size
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::Unexpected { .. })),
            "source {source:?} should be Unexpected, got {:?}",
            parse(source)
        );
    }
}

#[test]
fn deeply_nested_parameters_are_too_deep_errors() {
    // 200k nested parentheses (or unary minuses) used to recurse once per
    // token and abort the process on stack overflow.
    let parens = format!("{}pi{}", "(".repeat(200_000), ")".repeat(200_000));
    let minuses = format!("{}pi", "-".repeat(200_000));
    for param in [parens, minuses] {
        let source = format!("OPENQASM 2.0;\nqreg q[1];\nrz({param}) q[0];\n");
        match parse(&source) {
            Err(QasmError::TooDeep { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }
    // Ordinary nesting still evaluates.
    let source = "OPENQASM 2.0;\nqreg q[1];\nrz(-((((pi/2))))) q[0];\n";
    assert_eq!(parse(source).unwrap().len(), 1);
}

#[test]
fn error_displays_are_informative() {
    // Every variant's Display carries the line and enough context to fix
    // the file without reading parser source.
    let cases: Vec<(&str, &str)> = vec![
        ("OPENQASM 2.0;\nqreg q[2];\nh q[9];", "line 3"),
        ("OPENQASM 2.0;\nqreg q[1];\nmystery q[0];", "mystery"),
        ("OPENQASM 2.0;\nqreg q[1];\nrz q[0];", "rz"),
        ("OPENQASM 2.0;\nqreg q[2", "expected"),
    ];
    for (source, needle) in cases {
        let message = parse(source).unwrap_err().to_string();
        assert!(message.contains(needle), "{source:?} -> {message}");
    }
}
