//! Directive insertion: *Algorithm 1* (`ALLOCATE`, Figure 3) and
//! *Algorithm 2* (`LOCK`/`UNLOCK`, Figure 4).
//!
//! Algorithm 1 keeps a stack of `(PI, X)` argument pairs while walking the
//! program: on entering a loop its pair is appended and an `ALLOCATE`
//! carrying the whole list is inserted right before the loop; on exit the
//! pair is dropped, so sibling loops never see each other's arguments.
//!
//! Algorithm 2 scans each loop's body for array references appearing
//! before the first nested loop and inserts `LOCK (PJ, arrays...)`
//! immediately before that nested loop (`PJ` is the enclosing loop's
//! priority index). A matching `UNLOCK` listing everything locked inside
//! an outermost loop is inserted right after it.

use cdmm_lang::ast::{AllocArg, Directive, Loc, Program, Stmt};

use crate::loop_tree::{LoopId, LoopTree};
use crate::size::SizeReport;
use crate::Analysis;

/// What to insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InsertOptions {
    /// Insert `ALLOCATE` directives (Algorithm 1).
    pub allocate: bool,
    /// Insert `LOCK`/`UNLOCK` directives (Algorithm 2).
    pub lock: bool,
}

impl Default for InsertOptions {
    fn default() -> Self {
        InsertOptions {
            allocate: true,
            lock: true,
        }
    }
}

/// Produces an instrumented copy of the analysed program.
///
/// Any directives already present in the input are stripped first, so
/// instrumenting twice is idempotent.
///
/// # Examples
///
/// ```
/// use cdmm_locality::{analyze_program, instrument, InsertOptions, PageGeometry};
///
/// let src = "PROGRAM T\nPARAMETER (N = 64)\nDIMENSION V(N)\nDO 10 I = 1, N\nV(I) = 0.0\n10 CONTINUE\nEND";
/// let analysis = analyze_program(src, PageGeometry::PAPER).unwrap();
/// let out = instrument(&analysis, InsertOptions::default());
/// let text = cdmm_lang::to_source(&out);
/// assert!(text.contains("!MD$ ALLOCATE"));
/// ```
pub fn instrument(analysis: &Analysis, opts: InsertOptions) -> Program {
    let mut ctx = Ctx {
        tree: &analysis.tree,
        sizes: &analysis.sizes,
        opts,
        next_loop: 0,
        arg_stack: Vec::new(),
        locked: Vec::new(),
    };
    let body = ctx.rewrite_list(&analysis.program.body, None);
    Program {
        name: analysis.program.name.clone(),
        params: analysis.program.params.clone(),
        arrays: analysis.program.arrays.clone(),
        body,
    }
}

struct Ctx<'a> {
    tree: &'a LoopTree,
    sizes: &'a SizeReport,
    opts: InsertOptions,
    /// Preorder counter mirroring [`LoopTree::build`]'s id assignment.
    next_loop: usize,
    /// Algorithm 1's argument list (outermost first).
    arg_stack: Vec<AllocArg>,
    /// Arrays locked so far inside the current outermost loop.
    locked: Vec<String>,
}

impl Ctx<'_> {
    /// Rewrites a statement list. `pending_lock` is the `LOCK` directive
    /// the enclosing loop wants inserted before its first nested loop.
    fn rewrite_list(&mut self, stmts: &[Stmt], mut pending_lock: Option<Directive>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len() + 2);
        for stmt in stmts {
            match stmt {
                Stmt::Directive { .. } => {
                    // Strip pre-existing directives: re-instrumentation
                    // must not stack ALLOCATEs.
                }
                Stmt::Do { .. } => {
                    if let Some(dir) = pending_lock.take() {
                        if let Directive::Lock { arrays, .. } = &dir {
                            self.locked.extend(arrays.iter().cloned());
                        }
                        out.push(Stmt::Directive {
                            dir,
                            loc: Loc::default(),
                        });
                    }
                    self.rewrite_do(stmt, &mut out);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    loc,
                } => {
                    // A loop nested inside the IF ends Algorithm 2's
                    // search; place the pending LOCK before the IF.
                    if pending_lock.is_some()
                        && (contains_loop(then_body) || contains_loop(else_body))
                    {
                        let dir = pending_lock.take().expect("checked above");
                        if let Directive::Lock { arrays, .. } = &dir {
                            self.locked.extend(arrays.iter().cloned());
                        }
                        out.push(Stmt::Directive {
                            dir,
                            loc: Loc::default(),
                        });
                    }
                    out.push(Stmt::If {
                        cond: cond.clone(),
                        then_body: self.rewrite_list(then_body, None),
                        else_body: self.rewrite_list(else_body, None),
                        loc: *loc,
                    });
                }
                other => out.push(other.clone()),
            }
        }
        out
    }

    fn rewrite_do(&mut self, stmt: &Stmt, out: &mut Vec<Stmt>) {
        let Stmt::Do {
            label,
            var,
            lo,
            hi,
            step,
            body,
            loc,
        } = stmt
        else {
            unreachable!("rewrite_do called on a non-DO statement");
        };
        let id = LoopId(self.next_loop);
        self.next_loop += 1;
        let info = self.tree.get(id);
        debug_assert_eq!(info.var, *var, "loop preorder must match LoopTree::build");

        // Algorithm 1: append this loop's (PI, X), clamped so the request
        // list stays non-increasing, and emit the whole list.
        let mut pushed = false;
        if self.opts.allocate {
            let mut pages = self.sizes.pages_of(id);
            if let Some(last) = self.arg_stack.last() {
                pages = pages.min(last.pages);
            }
            self.arg_stack.push(AllocArg { pi: info.pi, pages });
            pushed = true;
            out.push(Stmt::Directive {
                dir: Directive::Allocate {
                    args: self.arg_stack.clone(),
                },
                loc: Loc::default(),
            });
        }

        // Algorithm 2: a LOCK for our pre-first-child references, handed
        // down to be placed before the first nested loop.
        let pending_lock = if self.opts.lock
            && !info.children.is_empty()
            && !info.refs_before_first_child.is_empty()
        {
            Some(Directive::Lock {
                pj: info.pi,
                arrays: info.refs_before_first_child.clone(),
            })
        } else {
            None
        };

        let locked_before = self.locked.len();
        let new_body = self.rewrite_list(body, pending_lock);
        out.push(Stmt::Do {
            label: *label,
            var: var.clone(),
            lo: lo.clone(),
            hi: hi.clone(),
            step: step.clone(),
            body: new_body,
            loc: *loc,
        });

        if pushed {
            self.arg_stack.pop();
        }

        // On leaving an outermost loop, unlock everything locked inside it.
        if info.parent.is_none() && self.locked.len() > locked_before {
            let mut arrays: Vec<String> = Vec::new();
            for a in self.locked.drain(locked_before..) {
                if !arrays.contains(&a) {
                    arrays.push(a);
                }
            }
            out.push(Stmt::Directive {
                dir: Directive::Unlock { arrays },
                loc: Loc::default(),
            });
        }
    }
}

fn contains_loop(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Do { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => contains_loop(then_body) || contains_loop(else_body),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    #[allow(unused_imports)]
    use crate::analyze_program_with_mode;
    use crate::{analyze_program, PageGeometry};
    use cdmm_lang::to_source;

    fn instrumented(src: &str, opts: InsertOptions) -> (Program, String) {
        // The Figure 5 golden values use the paper's upper-bound counting.
        let analysis = crate::analyze_program_with_mode(
            src,
            PageGeometry::PAPER,
            crate::SizerMode::PaperBound,
        )
        .unwrap();
        let p = instrument(&analysis, opts);
        let text = to_source(&p);
        (p, text)
    }

    /// Reconstruction of Figure 5a (same shape as the size.rs golden test).
    const FIG5: &str = "
PROGRAM FIG5
PARAMETER (N = 100)
DIMENSION A(N), B(N), C(N), D(N), E(N), F(N)
DIMENSION CC(N,N), DD(N,N), GG(N,N)
DO 4 I = 1, N
  A(I) = B(I) + 1.0
  DO 2 J = 1, N
    C(J) = D(J) + CC(I,J) + DD(J,I)
2 CONTINUE
  DO 3 K = 1, N
    E(K) = F(K) + 1.0
    DO 1 L = 1, N
      GG(L,K) = E(K) * 2.0
1   CONTINUE
3 CONTINUE
4 CONTINUE
END
";

    #[test]
    fn figure5c_directive_layout() {
        let (_, text) = instrumented(FIG5, InsertOptions::default());
        // X values from the size.rs golden test: X1 = 268, X(loop2) = 4,
        // X(loop3) = 3, X(loop1) = 2.
        let expected_order = [
            "!MD$ ALLOCATE ((3,268))",
            "DO 4 I = 1, N",
            "!MD$ LOCK (3,A,B)",
            "!MD$ ALLOCATE ((3,268) ELSE (1,4))",
            "DO 2 J = 1, N",
            "!MD$ ALLOCATE ((3,268) ELSE (2,3))",
            "DO 3 K = 1, N",
            "!MD$ LOCK (2,E,F)",
            "!MD$ ALLOCATE ((3,268) ELSE (2,3) ELSE (1,2))",
            "DO 1 L = 1, N",
            "!MD$ UNLOCK (A,B,E,F)",
        ];
        let mut pos = 0;
        for needle in expected_order {
            let found = text[pos..]
                .find(needle)
                .unwrap_or_else(|| panic!("missing or out of order: {needle}\n{text}"));
            pos += found + needle.len();
        }
    }

    #[test]
    fn instrumented_program_reparses() {
        let (p, text) = instrumented(FIG5, InsertOptions::default());
        let again = cdmm_lang::parse(&text).unwrap();
        assert_eq!(p, again, "instrumented source must round-trip");
    }

    #[test]
    fn allocate_args_follow_paper_invariants() {
        let (p, _) = instrumented(FIG5, InsertOptions::default());
        fn walk(stmts: &[Stmt], found: &mut usize) {
            for s in stmts {
                match s {
                    Stmt::Directive {
                        dir: Directive::Allocate { args },
                        ..
                    } => {
                        *found += 1;
                        for w in args.windows(2) {
                            assert!(w[0].pi > w[1].pi, "PI must strictly decrease");
                            assert!(w[0].pages >= w[1].pages, "X must not increase");
                        }
                    }
                    Stmt::Do { body, .. } => walk(body, found),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, found);
                        walk(else_body, found);
                    }
                    _ => {}
                }
            }
        }
        let mut found = 0;
        walk(&p.body, &mut found);
        assert_eq!(found, 4, "one ALLOCATE per loop");
    }

    #[test]
    fn allocate_only_option() {
        let (_, text) = instrumented(
            FIG5,
            InsertOptions {
                allocate: true,
                lock: false,
            },
        );
        assert!(text.contains("ALLOCATE"));
        assert!(!text.contains("LOCK"));
        assert!(!text.contains("UNLOCK"));
    }

    #[test]
    fn lock_only_option() {
        let (_, text) = instrumented(
            FIG5,
            InsertOptions {
                allocate: false,
                lock: true,
            },
        );
        assert!(!text.contains("ALLOCATE"));
        assert!(text.contains("!MD$ LOCK (3,A,B)"));
        assert!(text.contains("!MD$ UNLOCK (A,B,E,F)"));
    }

    #[test]
    fn leaf_loops_get_no_lock() {
        let src = "PROGRAM T\nPARAMETER (N = 10)\nDIMENSION V(N)\nDO 10 I = 1, N\nV(I) = 0.0\n10 CONTINUE\nEND";
        let (_, text) = instrumented(src, InsertOptions::default());
        assert!(!text.contains("LOCK"), "{text}");
    }

    #[test]
    fn re_instrumentation_is_idempotent() {
        let (_, text1) = instrumented(FIG5, InsertOptions::default());
        let analysis = crate::analyze_program_with_mode(
            &text1,
            PageGeometry::PAPER,
            crate::SizerMode::PaperBound,
        )
        .unwrap();
        let p2 = instrument(&analysis, InsertOptions::default());
        assert_eq!(text1, to_source(&p2));
        // The default tight mode is also idempotent.
        let a1 = analyze_program(FIG5, PageGeometry::PAPER).unwrap();
        let t1 = to_source(&instrument(&a1, InsertOptions::default()));
        let a2 = analyze_program(&t1, PageGeometry::PAPER).unwrap();
        assert_eq!(t1, to_source(&instrument(&a2, InsertOptions::default())));
    }

    #[test]
    fn lock_lands_before_if_wrapped_loop() {
        let src = "
PROGRAM T
PARAMETER (N = 10)
DIMENSION V(N), A(N,N)
DO 10 I = 1, N
  V(I) = 1.0
  IF (V(I) .GT. 0.0) THEN
    DO 20 J = 1, N
      A(J,I) = V(J)
20  CONTINUE
  ENDIF
10 CONTINUE
END
";
        let (_, text) = instrumented(src, InsertOptions::default());
        let lock_pos = text.find("!MD$ LOCK (2,V)").expect("lock inserted");
        let if_pos = text.find("IF (").expect("if present");
        assert!(
            lock_pos < if_pos,
            "LOCK must precede the IF-wrapped loop\n{text}"
        );
    }

    #[test]
    fn siblings_do_not_leak_arguments() {
        let src = "
PROGRAM T
PARAMETER (N = 100)
DIMENSION A(N,N), B(N,N)
DO 10 I = 1, N
  DO 20 J = 1, N
    A(J,I) = 1.0
20 CONTINUE
  DO 30 K = 1, N
    B(K,I) = 2.0
30 CONTINUE
10 CONTINUE
END
";
        let (p, _) = instrumented(src, InsertOptions::default());
        // Find the ALLOCATE before loop 30: it must have exactly two args
        // (outer + own), not three.
        fn find_allocs(stmts: &[Stmt], out: &mut Vec<Vec<AllocArg>>) {
            for s in stmts {
                match s {
                    Stmt::Directive {
                        dir: Directive::Allocate { args },
                        ..
                    } => {
                        out.push(args.clone());
                    }
                    Stmt::Do { body, .. } => find_allocs(body, out),
                    _ => {}
                }
            }
        }
        let mut allocs = Vec::new();
        find_allocs(&p.body, &mut allocs);
        assert_eq!(allocs.len(), 3);
        assert_eq!(allocs[0].len(), 1);
        assert_eq!(allocs[1].len(), 2);
        assert_eq!(allocs[2].len(), 2, "sibling args must be popped");
    }

    #[test]
    fn unlock_emitted_per_outermost_loop() {
        let src = "
PROGRAM T
PARAMETER (N = 10)
DIMENSION V(N), W(N), A(N,N)
DO 10 I = 1, N
  V(I) = 1.0
  DO 20 J = 1, N
    A(J,I) = V(J)
20 CONTINUE
10 CONTINUE
DO 30 I = 1, N
  W(I) = 1.0
  DO 40 J = 1, N
    A(J,I) = W(J)
40 CONTINUE
30 CONTINUE
END
";
        let (_, text) = instrumented(src, InsertOptions::default());
        assert!(text.contains("!MD$ UNLOCK (V)"));
        assert!(text.contains("!MD$ UNLOCK (W)"));
    }
}
