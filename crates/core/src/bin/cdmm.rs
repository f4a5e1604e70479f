//! `cdmm` — command-line driver for the Compiler-Directed memory
//! management pipeline.
//!
//! ```text
//! cdmm analyze <file>                  loop tree, priorities, locality sizes
//! cdmm instrument <file>               print the directive-instrumented source
//! cdmm trace <file>                    trace statistics
//! cdmm simulate <file> [options]       run one policy over the program
//!     --policy cd|cd-nolocks|lru|ws|fifo|clock|opt|pff  (default cd)
//!     --frames N                       allocation for lru/fifo/clock/opt (default 8)
//!     --tau N                          WS window / PFF threshold (default 1000)
//!     --level outer|inner|N            CD request selection (default 2)
//! cdmm sweep <file> --policy lru|ws    operating curve (PF/MEM/ST per point)
//! cdmm workloads [name]                list the paper's programs / dump one
//! ```

use std::process::ExitCode;

use cdmm_core::sweep::{self, SweepPlan};
use cdmm_core::{prepare, Executor, PipelineConfig, PolicySpec, ResultCache};
use cdmm_locality::{analyze_program, instrument, InsertOptions, PageGeometry};
use cdmm_trace::TraceStats;
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{Metrics, WsCurve};
use cdmm_workloads::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cdmm: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("usage: cdmm <analyze|instrument|trace|simulate|sweep|workloads> ...".into());
    };
    match cmd.as_str() {
        "analyze" => analyze_cmd(args.get(1).ok_or("analyze needs a file")?),
        "instrument" => instrument_cmd(args.get(1).ok_or("instrument needs a file")?),
        "trace" => trace_cmd(args.get(1).ok_or("trace needs a file")?),
        "simulate" => simulate_cmd(args.get(1).ok_or("simulate needs a file")?, &args[2..]),
        "sweep" => sweep_cmd(args.get(1).ok_or("sweep needs a file")?, &args[2..]),
        "workloads" => workloads_cmd(args.get(1).map(String::as_str)),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Reads a source file, or a built-in workload when the argument is
/// `@NAME` (e.g. `@CONDUCT`).
fn read_source(path: &str) -> Result<String, String> {
    if let Some(name) = path.strip_prefix('@') {
        let w = cdmm_workloads::by_name(name, Scale::Paper)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        return Ok(w.source);
    }
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn analyze_cmd(path: &str) -> Result<(), String> {
    let src = read_source(path)?;
    let a = analyze_program(&src, PageGeometry::PAPER).map_err(|e| e.to_string())?;
    println!(
        "{}: {} arrays, {} total pages, nest depth {}",
        a.program.name,
        a.symbols.order.len(),
        a.sizes.total_pages,
        a.tree.max_depth()
    );
    for l in &a.tree.loops {
        let indent = "  ".repeat(l.lambda as usize);
        println!(
            "{indent}loop {} (var {}, level {}, PI {}): locality {} pages",
            l.label.map_or("?".to_string(), |x| x.to_string()),
            l.var,
            l.lambda,
            l.pi,
            a.sizes.pages_of(l.id),
        );
        for c in &a.sizes.contributions[l.id.0] {
            println!(
                "{indent}  {:<8} {:>4} pages  ({})",
                c.array, c.pages, c.rule
            );
        }
    }
    Ok(())
}

fn instrument_cmd(path: &str) -> Result<(), String> {
    let src = read_source(path)?;
    let a = analyze_program(&src, PageGeometry::PAPER).map_err(|e| e.to_string())?;
    let out = instrument(&a, InsertOptions::default());
    print!("{}", cdmm_lang::to_source(&out));
    Ok(())
}

fn trace_cmd(path: &str) -> Result<(), String> {
    let src = read_source(path)?;
    let trace = cdmm_trace::trace_program(&src, PageGeometry::PAPER).map_err(|e| e.to_string())?;
    let stats = TraceStats::of(&trace);
    println!("references:      {}", stats.refs);
    println!("distinct pages:  {}", stats.distinct_pages);
    println!("virtual pages:   {}", trace.virtual_pages);
    println!("directives:      {}", stats.directives);
    println!("hottest page:    {} references", stats.hottest_page_refs);
    // A window of 1000 references that counts the current one: the
    // policy's WS(999).
    let ws = WsCurve::compute(&trace).mean_mem_at(999);
    println!("mean WS(1000):   {ws:.2} pages");
    Ok(())
}

fn print_metrics(label: &str, m: &Metrics) {
    println!(
        "{label:<12} PF {:>8}  MEM {:>8.2}  ST {:>12.4e}  peak {:>5}",
        m.faults,
        m.mean_mem(),
        m.st_cost(),
        m.peak_resident
    );
}

fn simulate_cmd(path: &str, rest: &[String]) -> Result<(), String> {
    let src = read_source(path)?;
    let p = prepare("CLI", &src, PipelineConfig::default()).map_err(|e| e.to_string())?;
    let policy = flag_value(rest, "--policy").unwrap_or("cd");
    let frames: usize = flag_value(rest, "--frames")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "bad --frames")?;
    let tau: u64 = flag_value(rest, "--tau")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| "bad --tau")?;
    let selector = || -> Result<CdSelector, String> {
        Ok(match flag_value(rest, "--level").unwrap_or("2") {
            "outer" => CdSelector::Outermost,
            "inner" => CdSelector::Innermost,
            k => CdSelector::AtLevel(k.parse().map_err(|_| "bad --level")?),
        })
    };
    let spec = match policy {
        "cd" => PolicySpec::Cd {
            selector: selector()?,
        },
        "cd-nolocks" => PolicySpec::CdNoLocks {
            selector: selector()?,
        },
        "lru" => PolicySpec::Lru { frames },
        "ws" => PolicySpec::Ws { tau },
        "fifo" => PolicySpec::Fifo { frames },
        "clock" => PolicySpec::Clock { frames },
        "opt" => PolicySpec::Opt { frames },
        "pff" => PolicySpec::Pff { threshold: tau },
        other => return Err(format!("unknown policy `{other}`")),
    };
    let m = p.run_policy(spec);
    println!(
        "{} references over {} virtual pages",
        p.plain_trace().ref_count(),
        p.virtual_pages()
    );
    print_metrics(policy, &m);
    Ok(())
}

fn sweep_cmd(path: &str, rest: &[String]) -> Result<(), String> {
    let src = read_source(path)?;
    let p = prepare("CLI", &src, PipelineConfig::default()).map_err(|e| e.to_string())?;
    let policy = flag_value(rest, "--policy").unwrap_or("lru");
    let cache = ResultCache::disabled();
    let plan = SweepPlan::new(&cache, &p);
    let serial = Executor::serial();
    let points = match policy {
        "lru" => {
            let frames: Vec<u64> = sweep::full_lru_range(&p).map(|m| m as u64).collect();
            plan.lru_grid(&serial, &plan.lru_curve(), &frames)
        }
        "ws" => plan.ws_grid(&serial, &plan.ws_curve(), &sweep::ws_tau_grid(&p, 6)),
        other => return Err(format!("sweep supports lru|ws, not `{other}`")),
    };
    println!("{:>10} {:>10} {:>10} {:>14}", "param", "PF", "MEM", "ST");
    for pt in &points {
        println!(
            "{:>10} {:>10} {:>10.2} {:>14.4e}",
            pt.param,
            pt.metrics.faults,
            pt.metrics.mean_mem(),
            pt.metrics.st_cost()
        );
    }
    let best = sweep::min_st(&points);
    println!("minimal ST at param {}", best.param);
    Ok(())
}

fn workloads_cmd(which: Option<&str>) -> Result<(), String> {
    match which {
        Some(name) => {
            let w = cdmm_workloads::by_name(name, Scale::Paper)
                .ok_or_else(|| format!("unknown workload {name}"))?;
            print!("{}", w.source);
            Ok(())
        }
        None => {
            for w in cdmm_workloads::all(Scale::Paper) {
                println!("{:<8} {}", w.name, w.description);
                let names: Vec<&str> = w.variants.iter().map(|v| v.name).collect();
                println!("         variants: {}", names.join(", "));
            }
            println!("\nUse `cdmm workloads NAME` to dump one, or `@NAME` as a file argument.");
            Ok(())
        }
    }
}
