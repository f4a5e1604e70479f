//! A mini-FORTRAN interpreter that emits array page-reference traces.
//!
//! The interpreter executes the program with real `f64` arithmetic (so
//! data-dependent control flow behaves like the original algorithms) and
//! appends one [`Event::Ref`] per array-element read or write. Scalar
//! variables live in registers and never touch the trace; the paper makes
//! the same assumption ("all constants and instructions are permanently
//! resident in memory").
//!
//! [`Interpreter::new`] resolves every name once, so executing a
//! reference costs slot and index arithmetic rather than hash or tree
//! lookups. Evaluation order, errors, the event cap and the cancellation
//! cadence are those of the string-keyed AST walker it replaced, which
//! survives as the oracle `cdmm_oracle::interp::Walker`; the root
//! `tests/interp_equivalence.rs` suite holds the two to identical traces,
//! final states and typed errors.

use std::collections::HashMap;
use std::fmt;

use cdmm_lang::ast::{BinOp, Directive, Expr, Program, RelOp, Stmt, UnOp};
use cdmm_lang::sema::SymbolTable;
use cdmm_lang::LangError;

use crate::cancel::CancelToken;
use crate::compress::{CompressedTrace, TraceBuilder};
use crate::event::{Event, PageId, Trace};
use crate::layout::MemoryLayout;

/// How many emitted events pass between [`CancelToken`] polls. A poll
/// reads the monotonic clock when a deadline is set, which would
/// dominate the ~nanoseconds it takes to emit one reference; every 4096
/// events the cost vanishes while a deadline still bounds `prepare`
/// within a fraction of a millisecond of trace generation.
pub const POLL_INTERVAL: u64 = 4096;

/// Interpreter limits and switches.
#[derive(Debug, Clone, Copy)]
pub struct InterpConfig {
    /// Hard cap on emitted events; exceeding it is an error (runaway-loop
    /// protection for generated workloads).
    pub max_events: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_events: 100_000_000,
        }
    }
}

/// Anything that can go wrong while generating a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Front-end failure (when entering through [`crate::trace_program`]).
    Lang(LangError),
    /// A subscript fell outside the declared extents.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Row subscript used.
        row: i64,
        /// Column subscript used (1 for vectors).
        col: i64,
    },
    /// A subscript expression evaluated to a non-integer.
    BadSubscript {
        /// Array name.
        array: String,
        /// Offending value.
        value: f64,
    },
    /// An intrinsic was called with the wrong number of arguments.
    WrongArity {
        /// Intrinsic name.
        name: String,
        /// Arguments received.
        got: usize,
    },
    /// A `DO` loop has a zero step.
    ZeroStep,
    /// The event cap was exceeded.
    EventLimit {
        /// The configured cap.
        limit: u64,
    },
    /// A [`CancelToken`] stopped trace generation (cancellation or an
    /// expired deadline).
    Cancelled {
        /// Logical events emitted before the stop.
        events_done: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Lang(e) => write!(f, "front end: {e}"),
            InterpError::OutOfBounds { array, row, col } => {
                write!(f, "subscript ({row},{col}) out of bounds for array {array}")
            }
            InterpError::BadSubscript { array, value } => {
                write!(f, "non-integer subscript {value} for array {array}")
            }
            InterpError::WrongArity { name, got } => {
                write!(f, "intrinsic {name} called with {got} arguments")
            }
            InterpError::ZeroStep => f.write_str("DO loop with zero step"),
            InterpError::EventLimit { limit } => {
                write!(f, "trace exceeded the {limit}-event limit")
            }
            InterpError::Cancelled { events_done } => {
                write!(f, "trace generation cancelled after {events_done} events")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Evaluation stops with a boxed error, so every `Result` the evaluator
/// returns stays two words wide.
type Flow<T> = Result<T, Box<InterpError>>;

/// Executes one program and produces its trace.
///
/// [`Interpreter::new`] lowers the checked AST once: scalars become
/// slots of a `Vec<f64>` (PARAMETERs preloaded), arrays become dense
/// indices carrying their extents and base page, intrinsic calls become
/// an enum, and each directive's event is built with its page ranges.
/// Running the lowered form then costs no hashing or string comparison
/// per reference.
#[derive(Debug)]
pub struct Interpreter {
    body: Box<[LStmt]>,
    /// Slot `i` holds the scalar named `scalar_names[i]`.
    scalar_names: Vec<String>,
    /// Arrays `0..declared` are the symbol table's; later ones stand for
    /// undeclared names, whose every access is out of bounds.
    declared: usize,
    total_pages: u32,
    machine: Machine,
}

/// The mutable state of a run: variable storage, limits and the trace
/// being built.
#[derive(Debug)]
struct Machine {
    config: InterpConfig,
    cancel: Option<CancelToken>,
    scalars: Vec<f64>,
    arrays: Vec<ArrayData>,
    elems_per_page: u64,
    /// References and directives stream into the compressed builder;
    /// the flat `Vec<Event>` only exists if a caller asks for it.
    builder: TraceBuilder,
    emitted: u64,
}

/// One array's placement and contents.
#[derive(Debug)]
struct ArrayData {
    name: String,
    rows: u64,
    cols: u64,
    base_page: u64,
    /// Column-major elements.
    data: Vec<f64>,
}

/// A lowered statement. `CONTINUE` lowers to nothing.
#[derive(Debug)]
enum LStmt {
    Do(Box<LDo>),
    SetScalar {
        slot: u32,
        value: LExpr,
    },
    SetElement {
        target: Box<LElement>,
        value: LExpr,
    },
    If {
        cond: LExpr,
        then_body: Box<[LStmt]>,
        else_body: Box<[LStmt]>,
    },
    /// The event the directive emits, page ranges already resolved.
    Directive(Event),
}

#[derive(Debug)]
struct LDo {
    var: u32,
    lo: LExpr,
    hi: LExpr,
    step: Option<LExpr>,
    body: Box<[LStmt]>,
}

/// An array element: which array, and its subscripts (the column is
/// 1 for vectors).
#[derive(Debug)]
struct LElement {
    array: u32,
    row: LExpr,
    col: Option<LExpr>,
}

/// A lowered expression.
#[derive(Debug)]
enum LExpr {
    Const(f64),
    Scalar(u32),
    Element(Box<LElement>),
    Op1(Op1, Box<LExpr>),
    Op2(Op2, Box<(LExpr, LExpr)>),
    /// `MIN` or `MAX` over two or more arguments.
    MinMax {
        max: bool,
        args: Box<[LExpr]>,
    },
    /// A call that fails once evaluated (wrong arity or an unknown
    /// intrinsic); its arguments are never evaluated.
    Fail(Box<InterpError>),
}

/// One-operand operations: negation, `.NOT.` and the one-argument
/// intrinsics.
#[derive(Debug, Clone, Copy)]
enum Op1 {
    Neg,
    Not,
    Abs,
    Sqrt,
    Exp,
    Alog,
    Sin,
    Cos,
    Float,
    Int,
}

impl Op1 {
    fn of(name: &str) -> Option<Op1> {
        Some(match name {
            "ABS" => Op1::Abs,
            "SQRT" => Op1::Sqrt,
            "EXP" => Op1::Exp,
            "ALOG" => Op1::Alog,
            "SIN" => Op1::Sin,
            "COS" => Op1::Cos,
            "FLOAT" => Op1::Float,
            "INT" => Op1::Int,
            _ => return None,
        })
    }

    #[inline]
    fn apply(self, v: f64) -> f64 {
        match self {
            Op1::Neg => -v,
            Op1::Not => truth(v == 0.0),
            Op1::Abs => v.abs(),
            Op1::Sqrt => v.abs().sqrt(),
            Op1::Exp => clamp_finite(v.min(700.0).exp()),
            Op1::Alog => {
                let v = v.abs();
                if v == 0.0 {
                    0.0
                } else {
                    v.ln()
                }
            }
            Op1::Sin => v.sin(),
            Op1::Cos => v.cos(),
            Op1::Float => v,
            Op1::Int => v.trunc(),
        }
    }
}

/// Two-operand operations: arithmetic, comparisons, the logical
/// connectives and the two-argument intrinsics. Both operands are
/// always evaluated, left first, so their array references trace.
#[derive(Debug, Clone, Copy)]
enum Op2 {
    Arith(BinOp),
    Rel(RelOp),
    And,
    Or,
    Mod,
    Sign,
}

impl Op2 {
    fn of(name: &str) -> Option<Op2> {
        Some(match name {
            "MOD" => Op2::Mod,
            "SIGN" => Op2::Sign,
            _ => return None,
        })
    }

    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Op2::Arith(BinOp::Add) => a + b,
            Op2::Arith(BinOp::Sub) => a - b,
            Op2::Arith(BinOp::Mul) => a * b,
            Op2::Arith(BinOp::Div) => {
                if b == 0.0 {
                    0.0
                } else {
                    a / b
                }
            }
            Op2::Arith(BinOp::Pow) => clamp_finite(a.powf(b)),
            Op2::Rel(op) => truth(match op {
                RelOp::Gt => a > b,
                RelOp::Ge => a >= b,
                RelOp::Lt => a < b,
                RelOp::Le => a <= b,
                RelOp::Eq => a == b,
                RelOp::Ne => a != b,
            }),
            Op2::And => truth(a != 0.0 && b != 0.0),
            Op2::Or => truth(a != 0.0 || b != 0.0),
            Op2::Mod => {
                if b == 0.0 {
                    0.0
                } else {
                    a % b
                }
            }
            Op2::Sign => {
                let a = a.abs();
                if b < 0.0 {
                    -a
                } else {
                    a
                }
            }
        }
    }
}

/// FORTRAN logical values as the interpreter stores them.
#[inline]
fn truth(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Name resolution for one program: scalar names to slots, array names
/// to indices.
struct Lowering<'l> {
    layout: &'l MemoryLayout,
    slots: HashMap<String, u32>,
    scalar_names: Vec<String>,
    array_ids: HashMap<String, u32>,
    arrays: Vec<ArrayData>,
}

impl Lowering<'_> {
    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.scalar_names.len() as u32;
        self.slots.insert(name.to_string(), s);
        self.scalar_names.push(name.to_string());
        s
    }

    /// Gives array `name` the next index. The layout decides extents
    /// and placement; a name it does not place gets empty extents, so
    /// every access fails its bounds check.
    fn declare(&mut self, name: &str, elements: u64) -> u32 {
        let (rows, cols, base_page) = match self.layout.region(name) {
            Some(r) => (r.rows, r.cols, r.base_page as u64),
            None => (0, 0, 0),
        };
        let a = self.arrays.len() as u32;
        self.array_ids.insert(name.to_string(), a);
        self.arrays.push(ArrayData {
            name: name.to_string(),
            rows,
            cols,
            base_page,
            data: vec![0.0; elements as usize],
        });
        a
    }

    /// The index of array `name`; an undeclared name becomes an array
    /// without elements.
    fn array(&mut self, name: &str) -> u32 {
        match self.array_ids.get(name) {
            Some(&a) => a,
            None => self.declare(name, 0),
        }
    }

    fn block(&mut self, stmts: &[Stmt]) -> Box<[LStmt]> {
        stmts.iter().filter_map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> Option<LStmt> {
        Some(match stmt {
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => LStmt::Do(Box::new(LDo {
                var: self.slot(var),
                lo: self.expr(lo),
                hi: self.expr(hi),
                step: step.as_ref().map(|s| self.expr(s)),
                body: self.block(body),
            })),
            Stmt::Assign { target, value, .. } => {
                let value = self.expr(value);
                match target {
                    Expr::Scalar(name) => LStmt::SetScalar {
                        slot: self.slot(name),
                        value,
                    },
                    Expr::Element { array, indices, .. } => LStmt::SetElement {
                        target: Box::new(self.element(array, indices)),
                        value,
                    },
                    other => unreachable!("sema rejects target {other:?}"),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => LStmt::If {
                cond: self.expr(cond),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
            },
            Stmt::Continue { .. } => return None,
            Stmt::Directive { dir, .. } => LStmt::Directive(match dir {
                Directive::Allocate { args } => Event::Alloc(args.clone()),
                Directive::Lock { pj, arrays } => Event::Lock {
                    pj: *pj,
                    ranges: self.layout.ranges_of(arrays),
                },
                Directive::Unlock { arrays } => Event::Unlock {
                    ranges: self.layout.ranges_of(arrays),
                },
            }),
        })
    }

    fn element(&mut self, array: &str, indices: &[Expr]) -> LElement {
        LElement {
            array: self.array(array),
            row: self.expr(&indices[0]),
            col: indices.get(1).map(|c| self.expr(c)),
        }
    }

    fn expr(&mut self, e: &Expr) -> LExpr {
        let pair = |l: &mut Self, a: &Expr, b: &Expr| Box::new((l.expr(a), l.expr(b)));
        match e {
            Expr::Int(v) => LExpr::Const(*v as f64),
            Expr::Real(v) => LExpr::Const(*v),
            Expr::Scalar(name) => LExpr::Scalar(self.slot(name)),
            Expr::Element { array, indices, .. } => {
                LExpr::Element(Box::new(self.element(array, indices)))
            }
            Expr::Call { name, args, .. } => self.call(name, args),
            Expr::Bin { op, lhs, rhs } => LExpr::Op2(Op2::Arith(*op), pair(self, lhs, rhs)),
            Expr::Un {
                op: UnOp::Neg,
                operand,
            } => LExpr::Op1(Op1::Neg, Box::new(self.expr(operand))),
            Expr::Rel { op, lhs, rhs } => LExpr::Op2(Op2::Rel(*op), pair(self, lhs, rhs)),
            Expr::And(a, b) => LExpr::Op2(Op2::And, pair(self, a, b)),
            Expr::Or(a, b) => LExpr::Op2(Op2::Or, pair(self, a, b)),
            Expr::Not(inner) => LExpr::Op1(Op1::Not, Box::new(self.expr(inner))),
        }
    }

    /// Resolves an intrinsic. A call with the wrong number of arguments
    /// lowers to [`LExpr::Fail`], so the error surfaces only if the call
    /// is evaluated, exactly when the arity check would have run.
    fn call(&mut self, name: &str, args: &[Expr]) -> LExpr {
        let lowered = match args {
            [_, _, ..] if name == "MIN" || name == "MAX" => Some(LExpr::MinMax {
                max: name == "MAX",
                args: args.iter().map(|a| self.expr(a)).collect(),
            }),
            [x] => Op1::of(name).map(|op| LExpr::Op1(op, Box::new(self.expr(x)))),
            [a, b] => {
                Op2::of(name).map(|op| LExpr::Op2(op, Box::new((self.expr(a), self.expr(b)))))
            }
            _ => None,
        };
        lowered.unwrap_or_else(|| {
            LExpr::Fail(Box::new(InterpError::WrongArity {
                name: name.to_string(),
                got: args.len(),
            }))
        })
    }
}

impl Interpreter {
    /// Lowers a checked program for execution over `layout`.
    pub fn new(program: &Program, symbols: &SymbolTable, layout: MemoryLayout) -> Self {
        let mut lower = Lowering {
            layout: &layout,
            slots: HashMap::new(),
            scalar_names: Vec::new(),
            array_ids: HashMap::new(),
            arrays: Vec::new(),
        };
        for (name, shape) in &symbols.arrays {
            lower.declare(name, shape.elements());
        }
        let declared = lower.arrays.len();
        for (name, _) in &program.params {
            lower.slot(name);
        }
        let body = lower.block(&program.body);
        // PARAMETER constants are ordinary named values at run time.
        let mut scalars = vec![0.0; lower.scalar_names.len()];
        for (name, v) in &program.params {
            scalars[lower.slots[name] as usize] = *v as f64;
        }
        Interpreter {
            body,
            scalar_names: lower.scalar_names,
            declared,
            total_pages: layout.total_pages(),
            machine: Machine {
                config: InterpConfig::default(),
                cancel: None,
                scalars,
                arrays: lower.arrays,
                elems_per_page: layout.geometry().elems_per_page(),
                builder: TraceBuilder::new(),
                emitted: 0,
            },
        }
    }

    /// Overrides the interpreter limits.
    pub fn with_config(mut self, config: InterpConfig) -> Self {
        self.machine.config = config;
        self
    }

    /// Attaches a cancellation token, polled every [`POLL_INTERVAL`]
    /// emitted events so a deadline bounds trace generation too.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.machine.cancel = Some(token);
        self
    }

    /// Runs the program to completion and returns the trace.
    pub fn run(self) -> Result<Trace, InterpError> {
        Ok(self.run_with_state()?.0)
    }

    /// Runs the program and also returns its final variable state, for
    /// validating that the traced computations are numerically sensible.
    pub fn run_with_state(self) -> Result<(Trace, ProgramState), InterpError> {
        let (compressed, state) = self.run_compressed_with_state()?;
        Ok((compressed.to_trace(), state))
    }

    /// Runs the program and returns the compressed trace — the native
    /// output; [`Self::run`] is this plus a decompression.
    pub fn run_compressed(self) -> Result<CompressedTrace, InterpError> {
        Ok(self.run_compressed_with_state()?.0)
    }

    /// [`Self::run_compressed`] with the final variable state.
    pub fn run_compressed_with_state(self) -> Result<(CompressedTrace, ProgramState), InterpError> {
        let Interpreter {
            body,
            scalar_names,
            declared,
            total_pages,
            mut machine,
        } = self;
        machine.exec_block(&body).map_err(|e| *e)?;
        let trace = machine.builder.finish(total_pages);
        let state = ProgramState {
            scalars: scalar_names.into_iter().zip(machine.scalars).collect(),
            arrays: machine
                .arrays
                .into_iter()
                .take(declared)
                .map(|a| (a.name, a.data))
                .collect(),
        };
        Ok((trace, state))
    }
}

impl Machine {
    /// Charges one logical event against the runaway-trace cap and, on
    /// the poll cadence, against the cancellation token.
    #[inline]
    fn charge(&mut self) -> Flow<()> {
        if self.emitted >= self.config.max_events {
            return Err(Box::new(InterpError::EventLimit {
                limit: self.config.max_events,
            }));
        }
        if self.emitted.is_multiple_of(POLL_INTERVAL) {
            if let Some(token) = &self.cancel {
                if token.should_stop() {
                    return Err(Box::new(InterpError::Cancelled {
                        events_done: self.emitted,
                    }));
                }
            }
        }
        self.emitted += 1;
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[LStmt]) -> Flow<()> {
        for stmt in stmts {
            self.exec(stmt)?;
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &LStmt) -> Flow<()> {
        match stmt {
            LStmt::Do(d) => {
                let lo = self.eval(&d.lo)?.round() as i64;
                let hi = self.eval(&d.hi)?.round() as i64;
                let step = match &d.step {
                    Some(s) => self.eval(s)?.round() as i64,
                    None => 1,
                };
                if step == 0 {
                    return Err(Box::new(InterpError::ZeroStep));
                }
                // FORTRAN-77 trip count semantics.
                let trips = (hi - lo + step) / step;
                let var = d.var as usize;
                let mut v = lo;
                for _ in 0..trips.max(0) {
                    self.scalars[var] = v as f64;
                    self.exec_block(&d.body)?;
                    v += step;
                }
                // The control variable keeps its post-loop value.
                self.scalars[var] = v as f64;
            }
            LStmt::SetScalar { slot, value } => {
                self.scalars[*slot as usize] = self.eval(value)?;
            }
            LStmt::SetElement { target, value } => {
                let v = self.eval(value)?;
                let (a, i) = self.touch(target)?;
                self.arrays[a].data[i] = v;
            }
            LStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                return if self.eval(cond)? != 0.0 {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                };
            }
            LStmt::Directive(event) => {
                self.charge()?;
                self.builder.push_directive(event.clone());
            }
        }
        Ok(())
    }

    /// Evaluates an element's subscripts, checks them against the
    /// array's extents and records the reference; returns the array's
    /// index and the element's column-major offset.
    #[inline]
    fn touch(&mut self, e: &LElement) -> Flow<(usize, usize)> {
        let a = e.array as usize;
        let row = self.subscript(a, &e.row)?;
        let col = match &e.col {
            Some(c) => self.subscript(a, c)?,
            None => 1,
        };
        let arr = &self.arrays[a];
        if row < 1 || col < 1 || row as u64 > arr.rows || col as u64 > arr.cols {
            return Err(out_of_bounds(arr, row, col));
        }
        let linear = (col as u64 - 1) * arr.rows + (row as u64 - 1);
        let page = arr.base_page + linear / self.elems_per_page;
        self.charge()?;
        self.builder.push_ref(PageId(page as u32));
        Ok((a, linear as usize))
    }

    #[inline]
    fn subscript(&mut self, a: usize, e: &LExpr) -> Flow<i64> {
        let v = self.operand(e)?;
        // Integral values, the common case, skip the tolerance test.
        let i = v as i64;
        if i as f64 == v {
            return Ok(i);
        }
        if v.fract().abs() > 1e-9 || !v.is_finite() {
            return Err(bad_subscript(&self.arrays[a], v));
        }
        Ok(v.round() as i64)
    }

    /// [`Self::eval`] with constants and scalars, most operands, read
    /// in place instead of through a call.
    #[inline(always)]
    fn operand(&mut self, e: &LExpr) -> Flow<f64> {
        match e {
            LExpr::Const(v) => Ok(*v),
            LExpr::Scalar(slot) => Ok(self.scalars[*slot as usize]),
            _ => self.eval(e),
        }
    }

    fn eval(&mut self, e: &LExpr) -> Flow<f64> {
        Ok(match e {
            LExpr::Const(v) => *v,
            LExpr::Scalar(slot) => self.scalars[*slot as usize],
            LExpr::Element(el) => {
                let (a, i) = self.touch(el)?;
                self.arrays[a].data[i]
            }
            LExpr::Op1(op, x) => op.apply(self.operand(x)?),
            LExpr::Op2(op, xy) => {
                let a = self.operand(&xy.0)?;
                let b = self.operand(&xy.1)?;
                op.apply(a, b)
            }
            LExpr::MinMax { max, args } => {
                let mut acc = self.eval(&args[0])?;
                for x in &args[1..] {
                    let v = self.eval(x)?;
                    acc = if *max { acc.max(v) } else { acc.min(v) };
                }
                acc
            }
            LExpr::Fail(err) => return Err(err.clone()),
        })
    }
}

/// The error for an access outside `arr`'s extents, built out of line
/// so the hot path stays small.
#[cold]
#[inline(never)]
fn out_of_bounds(arr: &ArrayData, row: i64, col: i64) -> Box<InterpError> {
    Box::new(InterpError::OutOfBounds {
        array: arr.name.clone(),
        row,
        col,
    })
}

/// The error for a non-integral subscript of `arr`, built out of line.
#[cold]
#[inline(never)]
fn bad_subscript(arr: &ArrayData, value: f64) -> Box<InterpError> {
    Box::new(InterpError::BadSubscript {
        array: arr.name.clone(),
        value,
    })
}

/// The final variable values of an executed program.
#[derive(Debug, Clone, Default)]
pub struct ProgramState {
    scalars: HashMap<String, f64>,
    arrays: HashMap<String, Vec<f64>>,
}

impl ProgramState {
    /// Final value of a scalar (0.0 when never assigned, like the
    /// interpreter's own default).
    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Final value of `array(row, col)` (1-based, column-major), or
    /// `None` for unknown arrays. Pass `col = 1` for vectors. The rows
    /// count must be supplied because the state does not retain shapes.
    pub fn element(&self, array: &str, rows: u64, row: u64, col: u64) -> Option<f64> {
        let data = self.arrays.get(array)?;
        if row < 1 || col < 1 {
            return None;
        }
        data.get(((col - 1) * rows + (row - 1)) as usize).copied()
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
/// numerical blow-up cannot poison subscripts later.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PageId;
    use crate::trace_program;
    use cdmm_locality::PageGeometry;

    fn trace(src: &str) -> Trace {
        trace_program(src, PageGeometry::PAPER).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn sequential_vector_walk_pages_in_order() {
        let t =
            trace("PROGRAM T\nDIMENSION V(128)\nDO 10 I = 1, 128\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 128);
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert!(pages[..64].iter().all(|&p| p == 0));
        assert!(pages[64..].iter().all(|&p| p == 1));
    }

    #[test]
    fn column_walk_stays_on_page_row_walk_strides() {
        let t = trace(
            "PROGRAM T\nPARAMETER (N = 64)\nDIMENSION A(N,N)\nDO 10 K = 1, N\nA(K,3) = 1.0\n10 CONTINUE\nEND",
        );
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert!(pages.iter().all(|&p| p == 2), "column 3 lives on page 2");

        let t = trace(
            "PROGRAM T\nPARAMETER (N = 64)\nDIMENSION A(N,N)\nDO 10 J = 1, N\nA(3,J) = 1.0\n10 CONTINUE\nEND",
        );
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        let expect: Vec<u32> = (0..64).collect();
        assert_eq!(pages, expect, "row walk touches a fresh page per step");
    }

    #[test]
    fn values_actually_compute() {
        // Sum 1..100 via an array, then branch on the result.
        let t = trace(
            "PROGRAM T\nDIMENSION V(100), W(1)\nDO 10 I = 1, 100\nV(I) = FLOAT(I)\n10 CONTINUE\n\
             S = 0.0\nDO 20 I = 1, 100\nS = S + V(I)\n20 CONTINUE\n\
             IF (S .EQ. 5050.0) W(1) = 1.0\nEND",
        );
        // 100 writes + 100 reads + 1 conditional write.
        assert_eq!(t.ref_count(), 201);
    }

    #[test]
    fn do_loop_step_and_zero_trip() {
        let t =
            trace("PROGRAM T\nDIMENSION V(10)\nDO 10 I = 1, 10, 3\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 4); // I = 1, 4, 7, 10.
        let t = trace("PROGRAM T\nDIMENSION V(10)\nDO 10 I = 5, 1\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 0, "zero-trip loop");
        let t =
            trace("PROGRAM T\nDIMENSION V(10)\nDO 10 I = 5, 1, -2\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 3, "negative step: 5, 3, 1");
    }

    #[test]
    fn if_branches_control_tracing() {
        let t = trace(
            "PROGRAM T\nDIMENSION V(4), W(4)\nDO 10 I = 1, 4\nIF (MOD(FLOAT(I), 2.0) .EQ. 0.0) THEN\nV(I) = 1.0\nELSE\nW(I) = 1.0\nENDIF\n10 CONTINUE\nEND",
        );
        assert_eq!(t.ref_count(), 4);
    }

    #[test]
    fn directive_events_pass_through() {
        let t = trace(
            "PROGRAM T\nDIMENSION V(64), W(64)\n!MD$ ALLOCATE ((2,4) ELSE (1,2))\nDO 10 I = 1, 4\n!MD$ LOCK (2,V)\nV(I) = 1.0\n10 CONTINUE\n!MD$ UNLOCK (V)\nEND",
        );
        assert_eq!(t.directive_count(), 1 + 4 + 1);
        match &t.events[0] {
            Event::Alloc(args) => assert_eq!(args.len(), 2),
            other => panic!("{other:?}"),
        }
        let lock = t
            .events
            .iter()
            .find(|e| matches!(e, Event::Lock { .. }))
            .unwrap();
        match lock {
            Event::Lock { pj, ranges } => {
                assert_eq!(*pj, 2);
                assert_eq!(ranges.len(), 1);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[0].end, 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let err = trace_program(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 5\nV(I) = 1.0\n10 CONTINUE\nEND",
            PageGeometry::PAPER,
        )
        .unwrap_err();
        assert_eq!(
            err,
            InterpError::OutOfBounds {
                array: "V".into(),
                row: 5,
                col: 1
            }
        );
    }

    #[test]
    fn event_limit_trips() {
        let mut p = cdmm_lang::parse(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 1000\nV(1) = 1.0\n10 CONTINUE\nEND",
        )
        .unwrap();
        let syms = cdmm_lang::analyze(&mut p).unwrap();
        let layout = MemoryLayout::new(&syms, PageGeometry::PAPER);
        let err = Interpreter::new(&p, &syms, layout)
            .with_config(InterpConfig { max_events: 10 })
            .run()
            .unwrap_err();
        assert_eq!(err, InterpError::EventLimit { limit: 10 });
    }

    #[test]
    fn cancelled_token_stops_trace_generation_at_the_first_poll() {
        let mut p = cdmm_lang::parse(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 1000\nV(1) = 1.0\n10 CONTINUE\nEND",
        )
        .unwrap();
        let syms = cdmm_lang::analyze(&mut p).unwrap();
        let layout = MemoryLayout::new(&syms, PageGeometry::PAPER);
        let token = CancelToken::new();
        token.cancel();
        let err = Interpreter::new(&p, &syms, layout)
            .with_cancel(token)
            .run()
            .unwrap_err();
        assert_eq!(err, InterpError::Cancelled { events_done: 0 });
    }

    #[test]
    fn idle_token_leaves_the_trace_unchanged() {
        let src = "PROGRAM T\nDIMENSION V(128)\nDO 10 I = 1, 128\nV(I) = 1.0\n10 CONTINUE\nEND";
        let plain = trace(src);
        let mut p = cdmm_lang::parse(src).unwrap();
        let syms = cdmm_lang::analyze(&mut p).unwrap();
        let layout = MemoryLayout::new(&syms, PageGeometry::PAPER);
        let traced = Interpreter::new(&p, &syms, layout)
            .with_cancel(CancelToken::new())
            .run()
            .unwrap();
        assert_eq!(traced, plain);
    }

    #[test]
    fn expired_deadline_cancels_a_long_trace_mid_generation() {
        use std::time::Duration;
        // ~10M references: far more than one poll interval, and far more
        // than a zero deadline allows.
        let mut p = cdmm_lang::parse(
            "PROGRAM T\nDIMENSION V(64)\nDO 20 J = 1, 160000\nDO 10 I = 1, 64\nV(I) = 1.0\n10 CONTINUE\n20 CONTINUE\nEND",
        )
        .unwrap();
        let syms = cdmm_lang::analyze(&mut p).unwrap();
        let layout = MemoryLayout::new(&syms, PageGeometry::PAPER);
        let err = Interpreter::new(&p, &syms, layout)
            .with_cancel(CancelToken::with_deadline(Duration::ZERO))
            .run()
            .unwrap_err();
        match err {
            InterpError::Cancelled { events_done } => {
                assert!(events_done < POLL_INTERVAL, "stopped at the first poll");
            }
            other => panic!("expected cancellation, got {other}"),
        }
    }

    #[test]
    fn intrinsics_compute() {
        let t = trace(
            "PROGRAM T\nDIMENSION V(8)\n\
             V(1) = SQRT(16.0)\nV(2) = ABS(-3.0)\nV(3) = MAX(1.0, 2.0, 7.0)\n\
             V(4) = MIN(5.0, 2.0)\nV(5) = MOD(7.0, 3.0)\nV(6) = SIGN(2.0, -1.0)\n\
             V(7) = INT(3.9)\nV(8) = ALOG(EXP(1.0))\nEND",
        );
        assert_eq!(t.ref_count(), 8);
    }

    #[test]
    fn scalar_only_programs_emit_nothing() {
        let t = trace("PROGRAM T\nX = 1.0\nDO 10 I = 1, 100\nX = X + 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 0);
        assert_eq!(t.virtual_pages, 0);
    }

    #[test]
    fn reads_trace_before_writes() {
        let t = trace("PROGRAM T\nDIMENSION V(200)\nV(100) = V(1) + 1.0\nEND");
        let pages: Vec<PageId> = t.refs().collect();
        assert_eq!(
            pages,
            vec![PageId(0), PageId(1)],
            "read page then write page"
        );
    }

    #[test]
    fn indices_may_come_from_arrays() {
        let t = trace("PROGRAM T\nDIMENSION IX(4), V(300)\nIX(1) = 3.0\nV(IX(1) * 64) = 1.0\nEND");
        // Write IX(1); read IX(1); write V(192).
        let pages: Vec<PageId> = t.refs().collect();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[2], PageId(1 + 2), "element 192 is page 3 of V");
    }
}
