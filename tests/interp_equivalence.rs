//! The lowered interpreter against the string-keyed AST walker it
//! replaced (`cdmm_oracle::interp::Walker`): on every workload at both
//! scales, on edge programs covering every statement, intrinsic and
//! directive kind, and on hand-edited ASTs that sema would reject, the
//! two must produce the same compressed trace and bit-identical final
//! state, or the same typed error — under the same geometry, event cap
//! and cancellation token.

use cdmm_lang::ast::{Expr, Program, Stmt};
use cdmm_lang::sema::SymbolTable;
use cdmm_locality::PageGeometry;
use cdmm_oracle::interp::{Walker, WalkerState};
use cdmm_trace::{
    CancelToken, CompressedTrace, InterpConfig, InterpError, Interpreter, MemoryLayout,
    ProgramState,
};

/// Runs a checked program through the lowered interpreter and the
/// oracle walker under the same geometry, limits and token, and
/// checks that they agree on the trace and final state, or on the
/// typed error.
fn agree_on(
    p: &Program,
    syms: &SymbolTable,
    geometry: PageGeometry,
    config: InterpConfig,
    token: Option<CancelToken>,
) -> Result<CompressedTrace, InterpError> {
    let layout = MemoryLayout::new(syms, geometry);
    let mut lowered = Interpreter::new(p, syms, layout.clone()).with_config(config);
    let mut walker = Walker::new(p, syms, layout).with_config(config);
    if let Some(t) = token {
        lowered = lowered.with_cancel(t.clone());
        walker = walker.with_cancel(t);
    }
    match (
        lowered.run_compressed_with_state(),
        walker.run_compressed_with_state(),
    ) {
        (Ok((got, got_state)), Ok((want, want_state))) => {
            assert_eq!(got, want, "{}: traces differ", p.name);
            assert_same_state(&got_state, &want_state);
            Ok(got)
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{}: errors differ", p.name);
            Err(got)
        }
        (got, want) => panic!(
            "{}: lowered {:?} vs oracle {:?}",
            p.name,
            got.map(|_| ()),
            want.map(|_| ())
        ),
    }
}

fn agree(src: &str) -> Result<CompressedTrace, InterpError> {
    agree_with(src, InterpConfig::default(), None)
}

fn agree_with(
    src: &str,
    config: InterpConfig,
    token: Option<CancelToken>,
) -> Result<CompressedTrace, InterpError> {
    let mut p = cdmm_lang::parse(src).unwrap();
    let syms = cdmm_lang::analyze(&mut p).unwrap();
    agree_on(&p, &syms, PageGeometry::PAPER, config, token)
}

/// Final states agree when every scalar reads the same (unassigned
/// scalars read 0.0 in both) and every array holds the same bits.
fn assert_same_state(a: &ProgramState, b: &WalkerState) {
    use std::collections::BTreeSet;
    let names: BTreeSet<&str> = a.scalar_names().chain(b.scalar_names()).collect();
    for n in names {
        assert_eq!(a.scalar(n).to_bits(), b.scalar(n).to_bits(), "scalar {n}");
    }
    let arrays: BTreeSet<&str> = a.array_names().collect();
    assert_eq!(arrays, b.array_names().collect(), "array names");
    for name in arrays {
        let bits =
            |s: Option<&[f64]>| -> Vec<u64> { s.unwrap().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(a.array(name)), bits(b.array(name)), "array {name}");
    }
}

#[test]
fn lowered_interpreter_matches_the_oracle_on_every_workload() {
    use cdmm_locality::{analyze_program, instrument, InsertOptions};
    use cdmm_workloads::{all, Scale};
    for scale in [Scale::Small, Scale::Paper] {
        for w in all(scale) {
            let plain = agree(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(plain.ref_count() > 0, "{}", w.name);
            // The instrumented program adds every directive kind.
            let analysis = analyze_program(&w.source, PageGeometry::PAPER).unwrap();
            let cd = instrument(&analysis, InsertOptions::default());
            let traced = agree_on(
                &cd,
                &analysis.symbols,
                PageGeometry::PAPER,
                InterpConfig::default(),
                None,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(traced.directive_count() > 0, "{}", w.name);
        }
    }
    // A geometry whose page holds a number of elements that is not
    // the paper's 64.
    let w = cdmm_workloads::by_name("HWSCRT", Scale::Small).unwrap();
    let mut p = cdmm_lang::parse(&w.source).unwrap();
    let syms = cdmm_lang::analyze(&mut p).unwrap();
    let geometry = PageGeometry::new(120, 8);
    agree_on(&p, &syms, geometry, InterpConfig::default(), None).unwrap();
}

#[test]
fn edge_programs_match_the_oracle() {
    let ok = [
        // Negative and non-unit steps; the control variable keeps
        // its post-loop value; a zero-trip loop still assigns it.
        "PROGRAM T\nDIMENSION V(10)\nDO 10 I = 9, 1, -3\nV(I) = FLOAT(I)\n10 CONTINUE\n\
         DO 20 J = 5, 1\nV(J) = 1.0\n20 CONTINUE\nV(1) = FLOAT(I + J)\nEND",
        // PARAMETERs are preloaded and may be reassigned.
        "PROGRAM T\nPARAMETER (N = 4)\nDIMENSION A(N,N)\nDO 10 J = 1, N\nDO 20 I = 1, N\n\
         A(I,J) = A(J,I) + FLOAT(I * J)\n20 CONTINUE\n10 CONTINUE\nN = N + 1\nEND",
        // Every intrinsic, both logical connectives, exponentiation,
        // division by zero and comparisons.
        "PROGRAM T\nDIMENSION V(16)\n\
         V(1) = SQRT(-16.0)\nV(2) = ABS(-3.0)\nV(3) = MAX(1.0, V(2), 7.0)\n\
         V(4) = MIN(5.0, V(3))\nV(5) = MOD(7.0, 3.0) + MOD(1.0, 0.0)\n\
         V(6) = SIGN(2.0, -1.0) + SIGN(-2.0, 1.0)\nV(7) = INT(-3.9)\n\
         V(8) = ALOG(EXP(1.0)) + ALOG(0.0) + EXP(1000.0)\nV(9) = SIN(1.0) * COS(1.0)\n\
         V(10) = 2.0 ** 0.5 + (-8.0) ** (1.0 / 3.0) + 10.0 ** 400.0\n\
         V(11) = 1.0 / 0.0\n\
         IF (V(1) .GT. 3.0 .AND. .NOT. V(2) .LT. 0.0) V(12) = 1.0\n\
         IF (V(1) .LE. 3.0 .OR. V(2) .GE. 3.0) V(13) = 1.0\n\
         IF (V(1) .EQ. 4.0 .AND. V(2) .NE. 4.0) THEN\nV(14) = 1.0\nELSE\nV(15) = 1.0\nENDIF\n\
         V(16) = -V(3)\nEND",
        // Subscripts computed from array contents, within the
        // integrality tolerance.
        "PROGRAM T\nDIMENSION IX(4), V(300)\nIX(1) = 3.0\nV(IX(1) * 64) = 1.0\n\
         X = 0.1 * 3.0 / 0.3\nV(X) = 2.0\nEND",
        // A wrong-arity call on a branch never taken is never
        // evaluated, so it never fails.
        "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 4\nIF (I .GT. 10) THEN\nV(I) = ABS(1.0, 2.0)\n\
         ELSE\nV(I) = MIN(FLOAT(I), 2.0)\nENDIF\n10 CONTINUE\nEND",
        // Unassigned scalars read 0.0; scalar-only programs trace
        // nothing.
        "PROGRAM T\nY = Z + 1.0\nEND",
        // Directives of every kind, including names the layout does
        // not know.
        "PROGRAM T\nDIMENSION V(64), W(200)\n!MD$ ALLOCATE ((2,4) ELSE (1,2))\nDO 10 I = 1, 4\n\
         !MD$ LOCK (2,V,Q,W)\nV(I) = W(I * 50)\n10 CONTINUE\n!MD$ UNLOCK (V,W)\nEND",
    ];
    for src in ok {
        agree(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    }

    let failing = [
        (
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 5\nV(I) = 1.0\n10 CONTINUE\nEND",
            InterpError::OutOfBounds {
                array: "V".into(),
                row: 5,
                col: 1,
            },
        ),
        (
            "PROGRAM T\nDIMENSION A(2,2)\nX = A(1,1) + A(0,3)\nEND",
            InterpError::OutOfBounds {
                array: "A".into(),
                row: 0,
                col: 3,
            },
        ),
        (
            "PROGRAM T\nDIMENSION V(4)\nV(1) = V(10.0 / 4.0)\nEND",
            InterpError::BadSubscript {
                array: "V".into(),
                value: 2.5,
            },
        ),
        (
            "PROGRAM T\nDIMENSION V(4)\nV(1) = V(2) + SQRT(V(3), 1.0)\nEND",
            InterpError::WrongArity {
                name: "SQRT".into(),
                got: 2,
            },
        ),
        (
            "PROGRAM T\nDIMENSION V(4)\nV(1) = MIN(V(2))\nEND",
            InterpError::WrongArity {
                name: "MIN".into(),
                got: 1,
            },
        ),
        (
            "PROGRAM T\nDIMENSION V(4)\nV(1) = MAX(2.0)\nEND",
            InterpError::WrongArity {
                name: "MAX".into(),
                got: 1,
            },
        ),
        (
            "PROGRAM T\nDIMENSION V(4)\nK = 0\nDO 10 I = 1, 4, K\nV(I) = 1.0\n10 CONTINUE\nEND",
            InterpError::ZeroStep,
        ),
    ];
    for (src, want) in failing {
        assert_eq!(agree(src), Err(want), "{src}");
    }

    let looping = "PROGRAM T\nDIMENSION V(4)\n!MD$ UNLOCK (V)\nDO 10 I = 1, 1000\nV(1) = 1.0\n\
                   10 CONTINUE\nEND";
    assert_eq!(
        agree_with(looping, InterpConfig { max_events: 10 }, None),
        Err(InterpError::EventLimit { limit: 10 })
    );
    let token = CancelToken::new();
    token.cancel();
    assert_eq!(
        agree_with(looping, InterpConfig::default(), Some(token)),
        Err(InterpError::Cancelled { events_done: 0 })
    );
}

#[test]
fn unchecked_names_fail_like_the_oracle() {
    // Hand-edited ASTs that sema would have rejected: an unknown
    // intrinsic fails as a wrong-arity call, an undeclared array as
    // an out-of-bounds access, both only once evaluated.
    let mut p =
        cdmm_lang::parse("PROGRAM T\nDIMENSION V(4)\nV(1) = ABS(2.0)\nV(2) = V(3)\nEND").unwrap();
    let syms = cdmm_lang::analyze(&mut p).unwrap();
    let run = |p: &Program| agree_on(p, &syms, PageGeometry::PAPER, InterpConfig::default(), None);
    let mut unknown_call = p.clone();
    if let Stmt::Assign {
        value: Expr::Call { name, .. },
        ..
    } = &mut unknown_call.body[0]
    {
        *name = "FOO".into();
    }
    assert_eq!(
        run(&unknown_call),
        Err(InterpError::WrongArity {
            name: "FOO".into(),
            got: 1
        })
    );
    let mut unknown_array = p.clone();
    if let Stmt::Assign {
        value: Expr::Element { array, .. },
        ..
    } = &mut unknown_array.body[1]
    {
        *array = "Q".into();
    }
    assert_eq!(
        run(&unknown_array),
        Err(InterpError::OutOfBounds {
            array: "Q".into(),
            row: 3,
            col: 1
        })
    );
}
