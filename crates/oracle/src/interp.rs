//! The string-keyed AST walker the lowered
//! [`cdmm_trace::Interpreter`] replaced.
//!
//! The interpreter resolves every name once and executes slot and index
//! arithmetic; this walker looks every name up in a map on every access.
//! Evaluation order, errors, the event cap and the cancellation cadence
//! must agree between the two, so the walker is the differential oracle
//! for the lowered form (`tests/interp_equivalence.rs`).

use std::collections::HashMap;

use cdmm_lang::ast::{BinOp, Directive, Expr, Program, RelOp, Stmt, UnOp};
use cdmm_lang::sema::SymbolTable;
use cdmm_trace::interp::POLL_INTERVAL;
use cdmm_trace::{
    CancelToken, CompressedTrace, Event, InterpConfig, InterpError, MemoryLayout, TraceBuilder,
};

/// The string-keyed AST walker the lowered interpreter replaced.
#[derive(Debug)]
pub struct Walker<'a> {
    program: &'a Program,
    layout: MemoryLayout,
    config: InterpConfig,
    scalars: HashMap<String, f64>,
    arrays: HashMap<String, Vec<f64>>,
    /// References and directives stream into the compressed builder;
    /// the flat `Vec<Event>` only exists if a caller asks for it.
    builder: TraceBuilder,
    emitted: u64,
    cancel: Option<CancelToken>,
}

impl<'a> Walker<'a> {
    /// A walker over a checked `program`, its arrays zeroed and its
    /// PARAMETERs preloaded.
    pub fn new(program: &'a Program, symbols: &SymbolTable, layout: MemoryLayout) -> Self {
        let mut arrays = HashMap::new();
        for (name, shape) in &symbols.arrays {
            arrays.insert(name.clone(), vec![0.0_f64; shape.elements() as usize]);
        }
        // PARAMETER constants are ordinary named values at run time.
        let scalars: HashMap<String, f64> = program
            .params
            .iter()
            .map(|(n, v)| (n.clone(), *v as f64))
            .collect();
        Walker {
            program,
            layout,
            config: InterpConfig::default(),
            scalars,
            arrays,
            builder: TraceBuilder::new(),
            emitted: 0,
            cancel: None,
        }
    }

    /// Sets the event cap.
    pub fn with_config(mut self, config: InterpConfig) -> Self {
        self.config = config;
        self
    }

    /// Polls `token` on the interpreter's cadence.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the program; returns its compressed trace and final state.
    pub fn run_compressed_with_state(
        mut self,
    ) -> Result<(CompressedTrace, WalkerState), InterpError> {
        let body = &self.program.body;
        self.exec_block(body)?;
        let trace = self.builder.finish(self.layout.total_pages());
        let state = WalkerState {
            scalars: self.scalars,
            arrays: self.arrays,
        };
        Ok((trace, state))
    }

    /// Charges one logical event against the runaway-trace cap and, on
    /// the poll cadence, against the cancellation token.
    fn charge(&mut self) -> Result<(), InterpError> {
        if self.emitted >= self.config.max_events {
            return Err(InterpError::EventLimit {
                limit: self.config.max_events,
            });
        }
        if self.emitted.is_multiple_of(POLL_INTERVAL) {
            if let Some(token) = &self.cancel {
                if token.should_stop() {
                    return Err(InterpError::Cancelled {
                        events_done: self.emitted,
                    });
                }
            }
        }
        self.emitted += 1;
        Ok(())
    }

    fn push(&mut self, ev: Event) -> Result<(), InterpError> {
        self.charge()?;
        self.builder.push_directive(ev);
        Ok(())
    }

    fn exec_block(&mut self, stmts: &'a [Stmt]) -> Result<(), InterpError> {
        for stmt in stmts {
            self.exec_stmt(stmt)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &'a Stmt) -> Result<(), InterpError> {
        match stmt {
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let lo = self.eval_int(lo, "DO bound")?;
                let hi = self.eval_int(hi, "DO bound")?;
                let step = match step {
                    Some(s) => self.eval_int(s, "DO step")?,
                    None => 1,
                };
                if step == 0 {
                    return Err(InterpError::ZeroStep);
                }
                // FORTRAN-77 trip count semantics.
                let trips = (hi - lo + step) / step;
                let mut v = lo;
                for _ in 0..trips.max(0) {
                    self.scalars.insert(var.clone(), v as f64);
                    self.exec_block(body)?;
                    v += step;
                }
                // The control variable keeps its post-loop value.
                self.scalars.insert(var.clone(), v as f64);
                Ok(())
            }
            Stmt::Assign { target, value, .. } => {
                let v = self.eval(value)?;
                match target {
                    Expr::Scalar(name) => {
                        self.scalars.insert(name.clone(), v);
                        Ok(())
                    }
                    Expr::Element { array, indices, .. } => {
                        let (row, col) = self.eval_subscripts(array, indices)?;
                        self.touch(array, row, col)?;
                        let linear = self
                            .layout
                            .linear_of(array, row, col)
                            .expect("touch already validated bounds");
                        let slot = self
                            .arrays
                            .get_mut(array)
                            .expect("sema guarantees the array exists");
                        slot[linear] = v;
                        Ok(())
                    }
                    other => unreachable!("sema rejects target {other:?}"),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.eval(cond)?;
                if c != 0.0 {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                }
            }
            Stmt::Continue { .. } => Ok(()),
            Stmt::Directive { dir, .. } => self.exec_directive(dir),
        }
    }

    fn exec_directive(&mut self, dir: &Directive) -> Result<(), InterpError> {
        match dir {
            Directive::Allocate { args } => self.push(Event::Alloc(args.clone())),
            Directive::Lock { pj, arrays } => {
                let ranges = self.layout.ranges_of(arrays);
                self.push(Event::Lock { pj: *pj, ranges })
            }
            Directive::Unlock { arrays } => {
                let ranges = self.layout.ranges_of(arrays);
                self.push(Event::Unlock { ranges })
            }
        }
    }

    /// Records a reference to element `(row, col)` of `array`.
    fn touch(&mut self, array: &str, row: i64, col: i64) -> Result<(), InterpError> {
        match self.layout.page_of(array, row, col) {
            Some(page) => {
                self.charge()?;
                self.builder.push_ref(page);
                Ok(())
            }
            None => Err(InterpError::OutOfBounds {
                array: array.to_string(),
                row,
                col,
            }),
        }
    }

    fn eval_subscripts(
        &mut self,
        array: &str,
        indices: &'a [Expr],
    ) -> Result<(i64, i64), InterpError> {
        let row = self.eval_subscript(array, &indices[0])?;
        let col = if indices.len() > 1 {
            self.eval_subscript(array, &indices[1])?
        } else {
            1
        };
        Ok((row, col))
    }

    fn eval_subscript(&mut self, array: &str, e: &'a Expr) -> Result<i64, InterpError> {
        let v = self.eval(e)?;
        if v.fract().abs() > 1e-9 || !v.is_finite() {
            return Err(InterpError::BadSubscript {
                array: array.to_string(),
                value: v,
            });
        }
        Ok(v.round() as i64)
    }

    fn eval_int(&mut self, e: &'a Expr, _what: &str) -> Result<i64, InterpError> {
        let v = self.eval(e)?;
        Ok(v.round() as i64)
    }

    fn eval(&mut self, e: &'a Expr) -> Result<f64, InterpError> {
        match e {
            Expr::Int(v) => Ok(*v as f64),
            Expr::Real(v) => Ok(*v),
            Expr::Scalar(name) => Ok(self.scalars.get(name).copied().unwrap_or(0.0)),
            Expr::Element { array, indices, .. } => {
                let (row, col) = self.eval_subscripts(array, indices)?;
                self.touch(array, row, col)?;
                let linear = self
                    .layout
                    .linear_of(array, row, col)
                    .expect("touch already validated bounds");
                Ok(self.arrays[array][linear])
            }
            Expr::Call { name, args, .. } => self.eval_intrinsic(name, args),
            Expr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                Ok(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            0.0
                        } else {
                            a / b
                        }
                    }
                    BinOp::Pow => clamp_finite(a.powf(b)),
                })
            }
            Expr::Un {
                op: UnOp::Neg,
                operand,
            } => Ok(-self.eval(operand)?),
            Expr::Rel { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                let r = match op {
                    RelOp::Gt => a > b,
                    RelOp::Ge => a >= b,
                    RelOp::Lt => a < b,
                    RelOp::Le => a <= b,
                    RelOp::Eq => a == b,
                    RelOp::Ne => a != b,
                };
                Ok(if r { 1.0 } else { 0.0 })
            }
            Expr::And(a, b) => {
                let av = self.eval(a)?;
                if av == 0.0 {
                    // FORTRAN does not guarantee short-circuiting, but the
                    // denotation is the same for side-effect-free operands;
                    // we still evaluate `b` so its array references trace.
                    let _ = self.eval(b)?;
                    Ok(0.0)
                } else {
                    Ok(if self.eval(b)? != 0.0 { 1.0 } else { 0.0 })
                }
            }
            Expr::Or(a, b) => {
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                Ok(if av != 0.0 || bv != 0.0 { 1.0 } else { 0.0 })
            }
            Expr::Not(inner) => Ok(if self.eval(inner)? == 0.0 { 1.0 } else { 0.0 }),
        }
    }

    fn eval_intrinsic(&mut self, name: &str, args: &'a [Expr]) -> Result<f64, InterpError> {
        let arity = |n: usize| -> Result<(), InterpError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(InterpError::WrongArity {
                    name: name.to_string(),
                    got: args.len(),
                })
            }
        };
        match name {
            "ABS" => {
                arity(1)?;
                Ok(self.eval(&args[0])?.abs())
            }
            "SQRT" => {
                arity(1)?;
                Ok(self.eval(&args[0])?.abs().sqrt())
            }
            "EXP" => {
                arity(1)?;
                Ok(clamp_finite(self.eval(&args[0])?.min(700.0).exp()))
            }
            "ALOG" => {
                arity(1)?;
                let v = self.eval(&args[0])?.abs();
                Ok(if v == 0.0 { 0.0 } else { v.ln() })
            }
            "SIN" => {
                arity(1)?;
                Ok(self.eval(&args[0])?.sin())
            }
            "COS" => {
                arity(1)?;
                Ok(self.eval(&args[0])?.cos())
            }
            "MOD" => {
                arity(2)?;
                let a = self.eval(&args[0])?;
                let b = self.eval(&args[1])?;
                Ok(if b == 0.0 { 0.0 } else { a % b })
            }
            "MIN" | "MAX" => {
                if args.len() < 2 {
                    return Err(InterpError::WrongArity {
                        name: name.to_string(),
                        got: args.len(),
                    });
                }
                let mut acc = self.eval(&args[0])?;
                for a in &args[1..] {
                    let v = self.eval(a)?;
                    acc = if name == "MIN" {
                        acc.min(v)
                    } else {
                        acc.max(v)
                    };
                }
                Ok(acc)
            }
            "FLOAT" => {
                arity(1)?;
                self.eval(&args[0])
            }
            "INT" => {
                arity(1)?;
                Ok(self.eval(&args[0])?.trunc())
            }
            "SIGN" => {
                arity(2)?;
                let a = self.eval(&args[0])?.abs();
                let b = self.eval(&args[1])?;
                Ok(if b < 0.0 { -a } else { a })
            }
            other => Err(InterpError::WrongArity {
                name: other.to_string(),
                got: args.len(),
            }),
        }
    }
}

/// The final variable values of a walked program: the walker's
/// counterpart of [`cdmm_trace::ProgramState`], with the same readers.
#[derive(Debug, Clone, Default)]
pub struct WalkerState {
    scalars: HashMap<String, f64>,
    arrays: HashMap<String, Vec<f64>>,
}

impl WalkerState {
    /// Final value of a scalar (0.0 when never assigned).
    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// The raw column-major contents of one array.
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        self.arrays.get(name).map(Vec::as_slice)
    }

    /// The names of every scalar the program assigned or preloaded.
    pub fn scalar_names(&self) -> impl Iterator<Item = &str> {
        self.scalars.keys().map(String::as_str)
    }

    /// The names of every declared array.
    pub fn array_names(&self) -> impl Iterator<Item = &str> {
        self.arrays.keys().map(String::as_str)
    }
}

/// Replaces non-finite intermediate values with large-but-finite ones so a
/// numerical blow-up cannot poison subscripts later (the interpreter's
/// rule, restated).
fn clamp_finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else if v.is_nan() {
        0.0
    } else if v > 0.0 {
        f64::MAX / 2.0
    } else {
        f64::MIN / 2.0
    }
}
