//! Semantic analysis: resolve `PARAMETER` constants and array shapes,
//! rewrite intrinsic calls, and check array usage.
//!
//! FORTRAN's `F(I)` syntax is ambiguous between an array element and a
//! function call; the parser always produces [`Expr::Element`], and this
//! pass rewrites references to undeclared names that match a known
//! intrinsic into [`Expr::Call`]. Anything else undeclared is an error.

use std::collections::BTreeMap;

use crate::ast::{Expr, Extent, Program, Stmt};
use crate::error::{LangError, LangResult};
use crate::span::Span;

/// Intrinsic functions the interpreter understands.
pub const INTRINSICS: &[&str] = &[
    "ABS", "SQRT", "EXP", "ALOG", "SIN", "COS", "MOD", "MIN", "MAX", "FLOAT", "INT", "SIGN",
];

/// The most elements a program may declare over all its arrays: `1 << 24`,
/// 128 MiB of `f64` interpreter storage. The largest paper workload,
/// CONDUCT at paper scale, declares 17,328. A program past the cap is a
/// [`LangError::TooLarge`], never an allocation abort or a wrapped size.
pub(crate) const MAX_ELEMENTS: u64 = 1 << 24;

/// The resolved shape of one declared array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayShape {
    /// Array name (upper-cased).
    pub name: String,
    /// Number of rows `M` (the contiguous, column-major direction).
    pub rows: u64,
    /// Number of columns `N`; 1 for vectors.
    pub cols: u64,
    /// Declared rank: 1 for `V(N)`, 2 for `A(M,N)`.
    pub rank: usize,
}

impl ArrayShape {
    /// Total number of elements.
    pub fn elements(&self) -> u64 {
        self.rows * self.cols
    }
}

/// Symbol information produced by [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymbolTable {
    /// Declared arrays keyed by name, preserving declaration order in
    /// [`SymbolTable::order`].
    pub arrays: BTreeMap<String, ArrayShape>,
    /// Array names in declaration order (fixes the address-space layout).
    pub order: Vec<String>,
    /// Resolved `PARAMETER` constants.
    pub params: BTreeMap<String, i64>,
}

impl SymbolTable {
    /// Looks up a declared array shape.
    pub fn shape(&self, name: &str) -> Option<&ArrayShape> {
        self.arrays.get(name)
    }

    /// Total elements over all declared arrays (the program's data virtual
    /// space before paging).
    pub fn total_elements(&self) -> u64 {
        self.arrays.values().map(ArrayShape::elements).sum()
    }
}

/// Runs semantic analysis on a parsed program.
///
/// On success the returned [`SymbolTable`] describes every declared array,
/// and the program has been rewritten in place so that intrinsic calls are
/// [`Expr::Call`] nodes.
///
/// # Examples
///
/// ```
/// let mut p = cdmm_lang::parse(
///     "PROGRAM T\nPARAMETER (N = 8)\nDIMENSION A(N,N)\nA(1,1) = SQRT(2.0)\nEND",
/// ).unwrap();
/// let syms = cdmm_lang::analyze(&mut p).unwrap();
/// assert_eq!(syms.shape("A").unwrap().rows, 8);
/// ```
pub fn analyze(program: &mut Program) -> LangResult<SymbolTable> {
    let mut syms = SymbolTable::default();

    for (name, value) in &program.params {
        if syms.params.insert(name.clone(), *value).is_some() {
            return Err(LangError::DuplicateDeclaration {
                name: name.clone(),
                span: Span::synthetic(),
            });
        }
    }

    let mut declared: u64 = 0;
    for decl in &program.arrays {
        if decl.extents.is_empty() || decl.extents.len() > 2 {
            return Err(LangError::BadExtent {
                name: decl.name.clone(),
                span: decl.loc.0,
            });
        }
        let mut dims = Vec::with_capacity(2);
        for e in &decl.extents {
            let v = resolve_extent(e, &syms, &decl.name, decl.loc.0)?;
            dims.push(v);
        }
        let shape = ArrayShape {
            name: decl.name.clone(),
            rows: dims[0],
            cols: if dims.len() == 2 { dims[1] } else { 1 },
            rank: dims.len(),
        };
        declared = shape
            .rows
            .checked_mul(shape.cols)
            .and_then(|n| n.checked_add(declared))
            .filter(|&n| n <= MAX_ELEMENTS)
            .ok_or_else(|| LangError::TooLarge {
                name: decl.name.clone(),
                span: decl.loc.0,
            })?;
        if syms.arrays.insert(decl.name.clone(), shape).is_some() {
            return Err(LangError::DuplicateDeclaration {
                name: decl.name.clone(),
                span: decl.loc.0,
            });
        }
        syms.order.push(decl.name.clone());
    }

    let mut body = std::mem::take(&mut program.body);
    for stmt in &mut body {
        check_stmt(stmt, &syms)?;
    }
    program.body = body;
    Ok(syms)
}

fn resolve_extent(e: &Extent, syms: &SymbolTable, array: &str, span: Span) -> LangResult<u64> {
    let v = match e {
        Extent::Lit(v) => *v,
        Extent::Param(p) => *syms
            .params
            .get(p)
            .ok_or_else(|| LangError::UnknownParameter {
                name: p.clone(),
                span,
            })?,
        Extent::Scaled(k, p) => {
            let base = *syms
                .params
                .get(p)
                .ok_or_else(|| LangError::UnknownParameter {
                    name: p.clone(),
                    span,
                })?;
            k.checked_mul(base).unwrap_or(-1)
        }
    };
    if v <= 0 {
        return Err(LangError::BadExtent {
            name: array.to_string(),
            span,
        });
    }
    Ok(v as u64)
}

fn check_stmt(stmt: &mut Stmt, syms: &SymbolTable) -> LangResult<()> {
    match stmt {
        Stmt::Do {
            lo, hi, step, body, ..
        } => {
            check_expr(lo, syms)?;
            check_expr(hi, syms)?;
            if let Some(s) = step {
                check_expr(s, syms)?;
            }
            for s in body {
                check_stmt(s, syms)?;
            }
            Ok(())
        }
        Stmt::Assign { target, value, .. } => {
            check_target(target, syms)?;
            check_expr(value, syms)
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            check_expr(cond, syms)?;
            for s in then_body.iter_mut().chain(else_body.iter_mut()) {
                check_stmt(s, syms)?;
            }
            Ok(())
        }
        Stmt::Continue { .. } | Stmt::Directive { .. } => Ok(()),
    }
}

/// Assignment targets must be scalars or *declared* array elements; an
/// intrinsic name on the left-hand side makes no sense.
fn check_target(target: &mut Expr, syms: &SymbolTable) -> LangResult<()> {
    match target {
        Expr::Scalar(_) => Ok(()),
        Expr::Element {
            array,
            indices,
            loc,
        } => {
            let shape = syms
                .shape(array)
                .ok_or_else(|| LangError::UndeclaredArray {
                    name: array.clone(),
                    span: loc.0,
                })?;
            if shape.rank != indices.len() {
                return Err(LangError::RankMismatch {
                    name: array.clone(),
                    declared: shape.rank,
                    used: indices.len(),
                    span: loc.0,
                });
            }
            for ix in indices {
                check_expr(ix, syms)?;
            }
            Ok(())
        }
        other => Err(LangError::UnexpectedToken {
            found: format!("{other:?}"),
            expected: "assignable target".into(),
            span: Span::synthetic(),
        }),
    }
}

fn check_expr(expr: &mut Expr, syms: &SymbolTable) -> LangResult<()> {
    match expr {
        Expr::Int(_) | Expr::Real(_) | Expr::Scalar(_) => Ok(()),
        Expr::Element {
            array,
            indices,
            loc,
        } => {
            if let Some(shape) = syms.shape(array) {
                if shape.rank != indices.len() {
                    return Err(LangError::RankMismatch {
                        name: array.clone(),
                        declared: shape.rank,
                        used: indices.len(),
                        span: loc.0,
                    });
                }
                for ix in indices.iter_mut() {
                    check_expr(ix, syms)?;
                }
                Ok(())
            } else if INTRINSICS.contains(&array.as_str()) {
                // Rewrite to an intrinsic call.
                let mut args = std::mem::take(indices);
                for a in args.iter_mut() {
                    check_expr(a, syms)?;
                }
                let name = std::mem::take(array);
                let loc = *loc;
                *expr = Expr::Call { name, args, loc };
                Ok(())
            } else {
                Err(LangError::UndeclaredArray {
                    name: array.clone(),
                    span: loc.0,
                })
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                check_expr(a, syms)?;
            }
            Ok(())
        }
        Expr::Bin { lhs, rhs, .. } | Expr::Rel { lhs, rhs, .. } => {
            check_expr(lhs, syms)?;
            check_expr(rhs, syms)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            check_expr(a, syms)?;
            check_expr(b, syms)
        }
        Expr::Un { operand, .. } | Expr::Not(operand) => check_expr(operand, syms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn analyzed(src: &str) -> (Program, SymbolTable) {
        let mut p = parse(src).unwrap();
        let syms = analyze(&mut p).unwrap();
        (p, syms)
    }

    #[test]
    fn shapes_resolve_parameters() {
        let (_, syms) =
            analyzed("PROGRAM T\nPARAMETER (M = 6, N = 4)\nDIMENSION A(M,N), V(N), W(2*M)\nEND");
        let a = syms.shape("A").unwrap();
        assert_eq!((a.rows, a.cols, a.rank), (6, 4, 2));
        let v = syms.shape("V").unwrap();
        assert_eq!((v.rows, v.cols, v.rank), (4, 1, 1));
        let w = syms.shape("W").unwrap();
        assert_eq!((w.rows, w.cols, w.rank), (12, 1, 1));
        assert_eq!(syms.order, vec!["A", "V", "W"]);
        assert_eq!(syms.total_elements(), 24 + 4 + 12);
    }

    /// Oversized declarations fail with a typed error naming the array:
    /// one whose element count overflows `u64` (it used to wrap to 0)
    /// and one past the cap, alone or summed over arrays. The nine paper
    /// workloads analyse under the cap at both scales
    /// (`cdmm-workloads`' `all_workloads_parse_and_check`).
    #[test]
    fn declarations_past_the_element_cap_are_typed_errors() {
        for (src, name) in [
            (
                "PROGRAM B\nDIMENSION A(4294967296,4294967296)\nA(1,1) = 1.0\nEND",
                "A",
            ),
            ("PROGRAM B\nDIMENSION A(100000,100000)\nEND", "A"),
            ("PROGRAM B\nDIMENSION V(16), A(4096,4096)\nEND", "A"),
        ] {
            let mut p = parse(src).unwrap();
            match analyze(&mut p) {
                Err(LangError::TooLarge { name: got, .. }) => assert_eq!(got, name, "{src}"),
                other => panic!("{src}: {other:?}"),
            }
        }
        let err = analyze(&mut parse("PROGRAM B\nDIMENSION Q(16777217)\nEND").unwrap())
            .expect_err("one past the cap");
        assert_eq!(
            err.to_string(),
            "line 2: array `Q` takes the declared elements past the limit of 16777216"
        );
        let (_, syms) = analyzed("PROGRAM B\nDIMENSION A(4096,4096)\nEND");
        assert_eq!(
            syms.total_elements(),
            MAX_ELEMENTS,
            "the cap itself is allowed"
        );
    }

    #[test]
    fn intrinsic_call_is_rewritten() {
        let (p, _) = analyzed("PROGRAM T\nDIMENSION V(4)\nV(1) = SQRT(ABS(X))\nEND");
        match &p.body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Call { name, args, .. } => {
                    assert_eq!(name, "SQRT");
                    assert!(matches!(&args[0], Expr::Call { name, .. } if name == "ABS"));
                }
                other => panic!("expected call, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn undeclared_array_is_error() {
        let mut p = parse("PROGRAM T\nDIMENSION V(4)\nV(1) = B(2)\nEND").unwrap();
        assert!(matches!(
            analyze(&mut p),
            Err(LangError::UndeclaredArray { name, .. }) if name == "B"
        ));
    }

    #[test]
    fn undeclared_assignment_target_is_error() {
        let mut p = parse("PROGRAM T\nB(1) = 2.0\nEND").unwrap();
        assert!(analyze(&mut p).is_err());
    }

    #[test]
    fn rank_mismatch_is_error() {
        let mut p = parse("PROGRAM T\nDIMENSION A(4,4)\nA(1) = 0.0\nEND").unwrap();
        assert!(matches!(
            analyze(&mut p),
            Err(LangError::RankMismatch {
                declared: 2,
                used: 1,
                ..
            })
        ));
    }

    #[test]
    fn unknown_parameter_is_error() {
        let mut p = parse("PROGRAM T\nDIMENSION A(N)\nEND").unwrap();
        assert!(matches!(
            analyze(&mut p),
            Err(LangError::UnknownParameter { name, .. }) if name == "N"
        ));
    }

    #[test]
    fn non_positive_extent_is_error() {
        let mut p = parse("PROGRAM T\nPARAMETER (N = 0)\nDIMENSION A(N)\nEND").unwrap();
        assert!(matches!(analyze(&mut p), Err(LangError::BadExtent { .. })));
    }

    #[test]
    fn duplicate_array_is_error() {
        let mut p = parse("PROGRAM T\nDIMENSION A(4), A(5)\nEND").unwrap();
        assert!(matches!(
            analyze(&mut p),
            Err(LangError::DuplicateDeclaration { .. })
        ));
    }

    #[test]
    fn three_dimensional_array_is_rejected() {
        let mut p = parse("PROGRAM T\nDIMENSION A(2,2,2)\nA(1,1,1) = 0.0\nEND").unwrap();
        assert!(matches!(analyze(&mut p), Err(LangError::BadExtent { .. })));
    }

    #[test]
    fn loops_and_ifs_are_checked_recursively() {
        let mut p = parse(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 4\nIF (V(I) .GT. 0.0) THEN\nV(I) = Q(I)\nENDIF\n10 CONTINUE\nEND",
        )
        .unwrap();
        assert!(matches!(
            analyze(&mut p),
            Err(LangError::UndeclaredArray { name, .. }) if name == "Q"
        ));
    }
}
