//! Pretty printer: turns an AST back into parseable source text.
//!
//! Instrumented programs print their directives as `!MD$` lines, so
//! `parse(to_source(p))` reproduces `p` (see the round-trip tests and the
//! property tests in the crate's test suite).

use std::fmt::Write as _;

use crate::ast::{BinOp, Directive, Expr, Program, RelOp, Stmt, UnOp};

/// Renders a program as source text.
///
/// # Examples
///
/// ```
/// let src = "PROGRAM T\nDIMENSION V(4)\nV(1) = 1.0\nEND\n";
/// let p = cdmm_lang::parse(src).unwrap();
/// let printed = cdmm_lang::to_source(&p);
/// let again = cdmm_lang::parse(&printed).unwrap();
/// assert_eq!(p, again);
/// ```
pub fn to_source(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "PROGRAM {}", program.name);
    if !program.params.is_empty() {
        let list: Vec<String> = program
            .params
            .iter()
            .map(|(n, v)| format!("{n} = {v}"))
            .collect();
        let _ = writeln!(out, "PARAMETER ({})", list.join(", "));
    }
    if !program.arrays.is_empty() {
        let list: Vec<String> = program
            .arrays
            .iter()
            .map(|a| {
                let dims: Vec<String> = a.extents.iter().map(|e| e.to_string()).collect();
                format!("{}({})", a.name, dims.join(","))
            })
            .collect();
        let _ = writeln!(out, "DIMENSION {}", list.join(", "));
    }
    for stmt in &program.body {
        print_stmt(&mut out, stmt, 0);
    }
    out.push_str("END\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn print_stmt(out: &mut String, stmt: &Stmt, depth: usize) {
    match stmt {
        Stmt::Do {
            label,
            var,
            lo,
            hi,
            step,
            body,
            ..
        } => {
            indent(out, depth);
            match label {
                Some(l) => {
                    let _ = write!(out, "DO {l} {var} = ");
                }
                None => {
                    let _ = write!(out, "DO {var} = ");
                }
            }
            print_expr(out, lo);
            out.push_str(", ");
            print_expr(out, hi);
            if let Some(s) = step {
                out.push_str(", ");
                print_expr(out, s);
            }
            out.push('\n');
            for s in body {
                print_stmt(out, s, depth + 1);
            }
            match label {
                Some(l) => {
                    indent(out, depth);
                    let _ = writeln!(out, "{l} CONTINUE");
                }
                None => {
                    indent(out, depth);
                    out.push_str("END DO\n");
                }
            }
        }
        Stmt::Assign { target, value, .. } => {
            indent(out, depth);
            print_expr(out, target);
            out.push_str(" = ");
            print_expr(out, value);
            out.push('\n');
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            indent(out, depth);
            out.push_str("IF (");
            print_expr(out, cond);
            out.push_str(") THEN\n");
            for s in then_body {
                print_stmt(out, s, depth + 1);
            }
            if !else_body.is_empty() {
                indent(out, depth);
                out.push_str("ELSE\n");
                for s in else_body {
                    print_stmt(out, s, depth + 1);
                }
            }
            indent(out, depth);
            out.push_str("END IF\n");
        }
        Stmt::Continue { label, .. } => {
            indent(out, depth);
            match label {
                Some(l) => {
                    let _ = writeln!(out, "{l} CONTINUE");
                }
                None => out.push_str("CONTINUE\n"),
            }
        }
        Stmt::Directive { dir, .. } => {
            indent(out, depth);
            let _ = writeln!(out, "!MD$ {}", directive_source(dir));
        }
    }
}

/// Renders a directive in the paper's syntax (usable after `!MD$`).
pub fn directive_source(dir: &Directive) -> String {
    dir.to_string()
}

/// Precedence levels for parenthesization.
fn prec(expr: &Expr) -> u8 {
    match expr {
        Expr::Or(..) => 1,
        Expr::And(..) => 2,
        Expr::Not(..) => 3,
        Expr::Rel { .. } => 4,
        Expr::Bin {
            op: BinOp::Add | BinOp::Sub,
            ..
        } => 5,
        Expr::Bin {
            op: BinOp::Mul | BinOp::Div,
            ..
        } => 6,
        Expr::Un { .. } => 7,
        Expr::Bin { op: BinOp::Pow, .. } => 8,
        _ => 9,
    }
}

fn print_child(out: &mut String, child: &Expr, parent_prec: u8, right: bool) {
    let child_prec = prec(child);
    // Conservative: parenthesize when the child binds no tighter than the
    // parent (except strictly-higher precedence). `right` tightens the rule
    // for left-associative operators' right operands.
    let need = child_prec < parent_prec || (child_prec == parent_prec && right);
    if need {
        out.push('(');
        print_expr(out, child);
        out.push(')');
    } else {
        print_expr(out, child);
    }
}

fn print_expr(out: &mut String, expr: &Expr) {
    match expr {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Real(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Expr::Scalar(name) => out.push_str(name),
        Expr::Element { array, indices, .. } => {
            out.push_str(array);
            out.push('(');
            for (i, ix) in indices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_expr(out, ix);
            }
            out.push(')');
        }
        Expr::Call { name, args, .. } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_expr(out, a);
            }
            out.push(')');
        }
        Expr::Bin { op, lhs, rhs } => {
            let p = prec(expr);
            let (sym, right_tight) = match op {
                BinOp::Add => (" + ", false),
                BinOp::Sub => (" - ", true),
                BinOp::Mul => (" * ", false),
                BinOp::Div => (" / ", true),
                BinOp::Pow => (" ** ", false),
            };
            match op {
                // `**` is right-associative: parenthesize a left child of
                // equal precedence instead.
                BinOp::Pow => {
                    print_child(out, lhs, p, true);
                    out.push_str(sym);
                    print_child(out, rhs, p, false);
                }
                _ => {
                    print_child(out, lhs, p, false);
                    out.push_str(sym);
                    print_child(out, rhs, p, right_tight);
                }
            }
        }
        Expr::Un {
            op: UnOp::Neg,
            operand,
        } => {
            out.push('-');
            print_child(out, operand, prec(expr), false);
        }
        Expr::Rel { op, lhs, rhs } => {
            let sym = match op {
                RelOp::Gt => " .GT. ",
                RelOp::Ge => " .GE. ",
                RelOp::Lt => " .LT. ",
                RelOp::Le => " .LE. ",
                RelOp::Eq => " .EQ. ",
                RelOp::Ne => " .NE. ",
            };
            let p = prec(expr);
            print_child(out, lhs, p, false);
            out.push_str(sym);
            print_child(out, rhs, p, true);
        }
        Expr::And(a, b) => {
            let p = prec(expr);
            print_child(out, a, p, false);
            out.push_str(" .AND. ");
            print_child(out, b, p, true);
        }
        Expr::Or(a, b) => {
            let p = prec(expr);
            print_child(out, a, p, false);
            out.push_str(" .OR. ");
            print_child(out, b, p, true);
        }
        Expr::Not(inner) => {
            out.push_str(".NOT. ");
            print_child(out, inner, prec(expr), false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn round_trip(src: &str) {
        let p = parse(src).unwrap_or_else(|e| panic!("first parse: {e}"));
        let printed = to_source(&p);
        let q =
            parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        assert_eq!(p, q, "round trip changed AST\nprinted:\n{printed}");
        // The printer must be a fixpoint.
        assert_eq!(printed, to_source(&q));
    }

    #[test]
    fn round_trips_simple_program() {
        round_trip("PROGRAM T\nPARAMETER (N = 4)\nDIMENSION A(N,N), V(N)\nX = 1.5\nEND\n");
    }

    #[test]
    fn round_trips_loops_and_ifs() {
        round_trip(
            "PROGRAM T\nPARAMETER (N = 4)\nDIMENSION A(N,N), V(N)\n\
             DO 10 J = 1, N\nDO 20 K = 1, N, 2\nA(K,J) = V(K) * 2.0 + A(K,J) ** 2\n20 CONTINUE\n\
             IF (V(J) .GT. 0.0 .AND. .NOT. V(J) .GE. 9.0) THEN\nV(J) = -V(J)\nELSE\nV(J) = 0.0\nEND IF\n\
             10 CONTINUE\nEND\n",
        );
    }

    #[test]
    fn round_trips_directives() {
        round_trip(
            "PROGRAM T\nPARAMETER (N = 4)\nDIMENSION A(N,N), E(N), F(N)\n\
             !MD$ ALLOCATE ((3,12) ELSE (1,2))\nDO 10 J = 1, N\n\
             !MD$ LOCK (3,E,F)\nE(J) = F(J)\n10 CONTINUE\n!MD$ UNLOCK (E,F)\nEND\n",
        );
    }

    #[test]
    fn round_trips_enddo_and_negatives() {
        round_trip(
            "PROGRAM T\nDIMENSION V(8)\nDO I = 1, 8\nV(I) = -(V(I) - 1.0) / (2.0 - V(I))\nEND DO\nEND\n",
        );
    }

    #[test]
    fn subtraction_is_not_reassociated() {
        // (a - b) - c must not print as a - b - c parsed as a - (b - c)...
        // it does: a - b - c reparses left-associatively, which is the same
        // tree. The dangerous one is a - (b - c).
        round_trip("PROGRAM T\nX = A - (B - C)\nY = (A - B) - C\nZ = A / (B / C)\nEND\n");
    }

    #[test]
    fn power_tower_round_trips() {
        round_trip("PROGRAM T\nX = 2 ** 3 ** 2\nY = (2 ** 3) ** 2\nEND\n");
    }

    #[test]
    fn real_literals_keep_a_decimal_point() {
        let p = parse("PROGRAM T\nX = 2.0\nEND").unwrap();
        let s = to_source(&p);
        assert!(s.contains("2.0"), "{s}");
    }
}
