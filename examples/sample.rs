//! Where the host's time goes: a SIGPROF pc sampler over `run_farm`.
//!
//! ```text
//! cargo run --release --example sample -- --workload mc_copy [--seconds 5] [--setup] [--callers] [--lines]
//! ```
//!
//! Runs one of the four `BENCHMARK.json` farm shapes — the judge's own
//! request streams at its default seed — in a loop for `--seconds` of
//! wall time while `setitimer(ITIMER_PROF)` interrupts the process every
//! millisecond of CPU time. `--setup` loops a cold set-up of the shape's
//! server instead: compile it from source on the shipped tier
//! (`fresh_image_tier`) and boot it past every cache
//! (`Server::boot_cold`), the set-up half of the judge's `setup_s`, where
//! the MiniC front end does most of the work, and first prints the
//! fastest time of each phase of it (parse, analyze, compile, the two
//! tree drops, image, `boot_cold`). The handler stores the interrupted pc (and
//! the words of the interrupted frame's stack page that point into the
//! executable, which are mostly return addresses) into a preallocated
//! static array of atomics; nothing else happens in signal context.
//! Afterwards the samples become self time by symbol through
//! `nm -C -S` on `/proc/self/exe`. `--callers` adds, under each symbol, the
//! functions whose return addresses sat nearest above it; `--lines`
//! adds self time by source line through `addr2line`, which needs line
//! tables the release profile does not carry:
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!     cargo run --release --example sample -- --workload mc_copy --lines
//! ```
//!
//! (line tables do not change the generated code). Every reading comes
//! with the link addresses of both executors, `Machine::run_native` and
//! the counted-loop batch `run_counted`, which runs MC's word copy and
//! component scan and Apache's path copy and rewrite scan (the
//! `apache_edge` and `apache_flood` shapes): placement alone has moved
//! `mc_copy` by 3–4% through `run_native` and by a fifth through
//! `run_counted` (PR 31's builds), so the table ends with them. Since
//! the batch's proof was inlined into `run_counted` (PR 50), three
//! alternating 10 s runs read 15 879–16 772 req/s (median 15 900) on a
//! placement-pinned build (`-C llvm-args=-align-all-functions=6`) and
//! 15 245–16 590 (median 16 210) on an unpinned one, a spread within
//! run-to-run noise.
//!
//! Linux on x86-64 only — the handler reads `rip`/`rsp` out of the
//! kernel's `ucontext_t` — and dependency-free: `sigaction` and
//! `setitimer` are declared here, std already links the C library that
//! defines them. This file holds the workspace's only `unsafe`.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("sample: the SIGPROF sampler is Linux/x86-64 only");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    linux::main()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use std::collections::HashMap;
    use std::ffi::{c_int, c_void};
    use std::process::Command;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::time::{Duration, Instant};

    use failure_oblivious::compiler::{compile_moving, ExecTier, ProgramImage};
    use failure_oblivious::lang::{analyze, parse};
    use failure_oblivious::servers::conn::{Edge, SocketEdge};
    use failure_oblivious::servers::farm::{run_farm, FarmConfig};
    use failure_oblivious::servers::{Server, ServerEnv, ServerKind};
    use failure_oblivious::Mode;

    // ---- the C interface (x86-64 Linux, glibc or musl layouts) -------

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;

    #[repr(C)]
    struct SigAction {
        handler: extern "C" fn(c_int, *mut c_void, *mut c_void),
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    #[repr(C)]
    struct ITimerVal {
        /// `it_interval` then `it_value`, each `(tv_sec, tv_usec)`.
        interval: [i64; 2],
        value: [i64; 2],
    }

    extern "C" {
        fn sigaction(signum: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
    }

    /// Byte offsets of `rsp` and `rip` in `ucontext_t`: `uc_flags` (8),
    /// `uc_link` (8), `uc_stack` (24), then `gregs[REG_RSP = 15]` and
    /// `gregs[REG_RIP = 16]`.
    const UC_RSP: usize = 40 + 15 * 8;
    const UC_RIP: usize = 40 + 16 * 8;

    // ---- sample storage, written only by the handler ------------------

    /// One millisecond of CPU time per sample.
    const INTERVAL_US: i64 = 1000;
    /// Room for two minutes on one thread, or one on two.
    const MAX_SAMPLES: usize = 1 << 17;
    /// A sample is the pc plus up to this many words off the stack.
    const CALLERS: usize = 6;
    const WIDTH: usize = 1 + CALLERS;
    /// Stack words the handler looks at, page edge permitting.
    const SCAN_WORDS: usize = 96;

    static SAMPLES: [AtomicU64; MAX_SAMPLES * WIDTH] =
        [const { AtomicU64::new(0) }; MAX_SAMPLES * WIDTH];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    /// The executable's text mapping, set before the timer is armed.
    static TEXT_LO: AtomicU64 = AtomicU64::new(0);
    static TEXT_HI: AtomicU64 = AtomicU64::new(0);

    extern "C" fn on_prof(_signum: c_int, _info: *mut c_void, context: *mut c_void) {
        let at = TAKEN.fetch_add(1, Relaxed);
        if at >= MAX_SAMPLES || context.is_null() {
            return;
        }
        let context = context as *const u8;
        // SAFETY: the kernel passes an `SA_SIGINFO` handler a pointer to
        // the interrupted thread's `ucontext_t`, which on x86-64 Linux
        // holds the general registers at the offsets above.
        let (pc, sp) = unsafe {
            (
                context.add(UC_RIP).cast::<u64>().read(),
                context.add(UC_RSP).cast::<u64>().read(),
            )
        };
        let row = &SAMPLES[at * WIDTH..(at + 1) * WIDTH];
        row[0].store(pc, Relaxed);
        let (lo, hi) = (TEXT_LO.load(Relaxed), TEXT_HI.load(Relaxed));
        // Only words in the page `rsp` points into: that page is mapped
        // (the interrupted code's frame is in it), the next may not be.
        let page_end = (sp | 0xfff) + 1;
        let words = (((page_end - sp) / 8) as usize).min(SCAN_WORDS);
        let mut found = 1;
        for i in 0..words {
            // SAFETY: `sp` is the interrupted thread's stack pointer, 8-byte
            // aligned by the ABI, and `sp + 8 * i` stays inside its page.
            let word = unsafe { (sp as *const u64).add(i).read_volatile() };
            if word >= lo && word < hi {
                row[found].store(word, Relaxed);
                found += 1;
                if found == WIDTH {
                    break;
                }
            }
        }
    }

    /// Installs the handler and arms (or, with 0, disarms) the timer.
    fn set_timer(interval_us: i64) {
        let action = SigAction {
            handler: on_prof,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        let every = ITimerVal {
            interval: [0, interval_us],
            value: [0, interval_us],
        };
        // SAFETY: both structs match the C library's x86-64 Linux layouts
        // and outlive the calls; the handler touches only atomics and
        // the interrupted thread's own stack page.
        let failed = unsafe {
            sigaction(SIGPROF, &action, std::ptr::null_mut()) != 0
                || setitimer(ITIMER_PROF, &every, std::ptr::null_mut()) != 0
        };
        assert!(!failed, "sigaction/setitimer refused");
    }

    // ---- the four BENCHMARK.json shapes -------------------------------

    struct Shape {
        name: &'static str,
        kind: ServerKind,
        mode: Mode,
        servers: usize,
        requests: usize,
        attack_ratio: (u32, u32),
        threads: usize,
        socket: bool,
        unlimited_restarts: bool,
        /// What `bench/` derives from its default `--seed`.
        farm_seed: u64,
    }

    const SHAPES: [Shape; 4] = [
        Shape {
            name: "mc_copy",
            kind: ServerKind::Mc,
            mode: Mode::FailureOblivious,
            servers: 1,
            requests: 8,
            attack_ratio: (1, 8),
            threads: 1,
            socket: false,
            unlimited_restarts: false,
            farm_seed: 0xbda1_8b91_c38b_9790,
        },
        Shape {
            name: "apache_edge",
            kind: ServerKind::Apache,
            mode: Mode::FailureOblivious,
            servers: 16,
            requests: 300,
            attack_ratio: (1, 8),
            threads: 1,
            socket: true,
            unlimited_restarts: false,
            farm_seed: 0x7043_ee16_f838_bf45,
        },
        Shape {
            name: "apache_flood",
            kind: ServerKind::Apache,
            mode: Mode::BoundsCheck,
            servers: 64,
            requests: 40,
            attack_ratio: (1, 2),
            threads: 1,
            socket: false,
            unlimited_restarts: true,
            farm_seed: 0x3aa0_1e18_8b4c_6293,
        },
        Shape {
            name: "pine_mail",
            kind: ServerKind::Pine,
            mode: Mode::FailureOblivious,
            servers: 32,
            requests: 40,
            attack_ratio: (1, 8),
            threads: 2,
            socket: false,
            unlimited_restarts: false,
            farm_seed: 0x1e73_4917_dc92_b183,
        },
    ];

    impl Shape {
        fn config(&self) -> FarmConfig {
            let mut config = FarmConfig::new(self.kind, self.mode);
            (config.servers, config.requests_per_server) = (self.servers, self.requests);
            config.threads = self.threads;
            config.attack_ratio = self.attack_ratio;
            config.seed = self.farm_seed;
            if self.unlimited_restarts {
                config.restart_budget = u32::MAX;
            }
            if self.socket {
                config.edge = Edge::Socket(SocketEdge::default());
            }
            config
        }
    }

    // ---- symbolising --------------------------------------------------

    /// This executable's path: `/proc/self/exe` resolved here, because
    /// in `nm`'s process it would name `nm`.
    fn exe_path() -> std::path::PathBuf {
        std::fs::read_link("/proc/self/exe").expect("/proc/self/exe")
    }

    /// The executable's load address and its text mapping.
    fn exe_mapping() -> (u64, u64, u64) {
        let exe = exe_path();
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        let mut found = (u64::MAX, 0, 0);
        for line in maps.lines() {
            let mut cols = line.split_whitespace();
            let (Some(range), Some(perms)) = (cols.next(), cols.next()) else {
                continue;
            };
            if cols.nth(3).map(std::path::Path::new) != Some(exe.as_path()) {
                continue;
            }
            let (lo, hi) = range.split_once('-').expect("lo-hi");
            let parse = |s| u64::from_str_radix(s, 16).expect("hex address");
            found.0 = found.0.min(parse(lo));
            if perms.contains('x') {
                (found.1, found.2) = (parse(lo), parse(hi));
            }
        }
        assert!(found.2 > 0, "no text mapping of {exe:?} in /proc/self/maps");
        found
    }

    /// `(address, size, name)` of every function `nm` lists, by address.
    fn symbols() -> Vec<(u64, u64, String)> {
        let out = Command::new("nm")
            .args(["-C", "-S", "--defined-only"])
            .arg(exe_path())
            .output()
            .expect("run nm (binutils)");
        let mut symbols = Vec::new();
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let mut cols = line.splitn(4, ' ');
            let (Some(addr), Some(size), Some(kind), Some(name)) =
                (cols.next(), cols.next(), cols.next(), cols.next())
            else {
                continue;
            };
            if let ("t" | "T" | "w" | "W", Ok(addr), Ok(size)) = (
                kind,
                u64::from_str_radix(addr, 16),
                u64::from_str_radix(size, 16),
            ) {
                symbols.push((addr, size, name.to_owned()));
            }
        }
        symbols.sort();
        symbols
    }

    /// Names a runtime address: its function, else where it lies.
    struct Names {
        base: u64,
        symbols: Vec<(u64, u64, String)>,
    }

    impl Names {
        fn of(&self, pc: u64) -> &str {
            let rel = pc.wrapping_sub(self.base);
            let at = self.symbols.partition_point(|s| s.0 <= rel);
            match at.checked_sub(1).map(|i| &self.symbols[i]) {
                Some((addr, size, name)) if rel - addr < *size => name,
                _ => "[outside the executable: libc, vdso]",
            }
        }
    }

    /// Counts by key, largest first (ties by key, so output repeats).
    fn ranked<K: Ord + std::hash::Hash>(counts: HashMap<K, u64>) -> Vec<(K, u64)> {
        let mut rows: Vec<(K, u64)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    fn short(name: &str) -> String {
        // Drop the hash suffix and the crate-qualified generics' bulk.
        let name = name.rsplit_once("::h").map_or(name, |(head, tail)| {
            if tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit()) {
                head
            } else {
                name
            }
        });
        if name.len() > 76 {
            format!("{}…", &name[..name.floor_char_boundary(75)])
        } else {
            name.to_owned()
        }
    }

    fn by_line(base: u64, pcs: &[u64]) -> Vec<(String, u64)> {
        let mut per_pc: HashMap<u64, u64> = HashMap::new();
        for &pc in pcs {
            *per_pc.entry(pc.wrapping_sub(base)).or_default() += 1;
        }
        let pcs: Vec<(u64, u64)> = ranked(per_pc);
        let mut lines: HashMap<String, u64> = HashMap::new();
        for chunk in pcs.chunks(512) {
            let out = Command::new("addr2line")
                .arg("-e")
                .arg(exe_path())
                .args(chunk.iter().map(|(pc, _)| format!("{pc:#x}")))
                .output()
                .expect("run addr2line (binutils)");
            let text = String::from_utf8_lossy(&out.stdout);
            for (line, (_, n)) in text.lines().zip(chunk) {
                let line = line.split(" (discriminator").next().unwrap_or(line);
                let at = line.rfind("/crates/").or_else(|| line.rfind("/library/"));
                *lines.entry(line[at.unwrap_or(0)..].to_owned()).or_default() += n;
            }
        }
        ranked(lines)
    }

    // ---- driver -------------------------------------------------------

    /// What `--setup` times one by one in each cold set-up.
    const SETUP_PHASES: [&str; 7] = [
        "parse",
        "analyze",
        "compile",
        "drop the AST",
        "drop the HIR",
        "image",
        "boot_cold",
    ];

    struct Args {
        shape: &'static Shape,
        seconds: f64,
        setup: bool,
        callers: bool,
        lines: bool,
    }

    fn parse_args() -> Result<Args, String> {
        let mut args = Args {
            shape: &SHAPES[0],
            seconds: 5.0,
            setup: false,
            callers: false,
            lines: false,
        };
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            match flag.as_str() {
                "--workload" => {
                    let name = argv.next().ok_or("--workload needs a name")?;
                    args.shape = SHAPES
                        .iter()
                        .find(|s| s.name == name)
                        .ok_or(format!("unknown workload `{name}`"))?;
                }
                "--seconds" => {
                    let text = argv.next().ok_or("--seconds needs a number")?;
                    args.seconds = text
                        .parse()
                        .ok()
                        .filter(|s| (0.1..=120.0).contains(s))
                        .ok_or(format!("--seconds wants 0.1..120, got `{text}`"))?;
                }
                "--setup" => args.setup = true,
                "--callers" => args.callers = true,
                "--lines" => args.lines = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(args)
    }

    pub fn main() {
        let args = parse_args().unwrap_or_else(|e| {
            let names: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
            eprintln!("sample: {e}");
            eprintln!(
                "usage: sample [--workload {}] [--seconds <n>] [--setup] [--callers] [--lines]",
                names.join("|")
            );
            std::process::exit(2);
        });
        let config = args.shape.config();
        let (base, text_lo, text_hi) = exe_mapping();
        TEXT_LO.store(text_lo, Relaxed);
        TEXT_HI.store(text_hi, Relaxed);

        let limit = Duration::from_secs_f64(args.seconds);
        // Each phase of a cold set-up, as (name, fastest seconds).
        let mut phases = SETUP_PHASES.map(|name| (name, f64::MAX));
        let (started, what) = if args.setup {
            let (kind, spec) = (config.kind, config.boot_spec());
            let started = Instant::now();
            let mut reps = 0u64;
            set_timer(INTERVAL_US);
            while started.elapsed() < limit {
                // `fresh_image_tier` and `Server::boot_cold`, phase by phase.
                let mut lap = Instant::now();
                let mut done = |phase: usize| {
                    let best = &mut phases[phase].1;
                    *best = best.min(lap.elapsed().as_secs_f64());
                    lap = Instant::now();
                };
                let ast = parse(kind.source()).expect("server source parses");
                done(0);
                let mut hir = analyze(&ast).expect("server source type-checks");
                done(1);
                let program = compile_moving(&mut hir).expect("server source lowers");
                done(2);
                drop(ast);
                done(3);
                drop(hir);
                done(4);
                let image = match spec.tier {
                    ExecTier::Baseline => ProgramImage::new(program),
                    ExecTier::Native => ProgramImage::with_native(program),
                };
                done(5);
                let server = Server::boot_cold(kind, &image, &spec, ServerEnv::standard());
                done(6);
                drop(server);
                reps += 1;
            }
            set_timer(0);
            let each = started.elapsed().as_secs_f64() / reps as f64;
            (
                started,
                format!("{reps} cold set-ups ({:.1} us each)", each * 1e6),
            )
        } else {
            // One untimed rep warms the image and checkpoint caches, as
            // the judge's warm-up rep does; sampling covers steady state.
            let warm = run_farm(&config);
            let started = Instant::now();
            let (mut reps, mut completed) = (0u64, 0u64);
            set_timer(INTERVAL_US);
            while started.elapsed() < limit {
                let report = run_farm(&config);
                assert_eq!(report.stats, warm.stats, "a rep diverged from the warm-up");
                completed += report.stats.completed;
                reps += 1;
            }
            set_timer(0);
            let rate = completed as f64 / started.elapsed().as_secs_f64();
            let what = format!("{reps} reps, {completed} requests ({rate:.1} req/s while sampled)");
            (started, what)
        };
        let wall = started.elapsed().as_secs_f64();

        let taken = TAKEN.load(Relaxed).min(MAX_SAMPLES);
        let rows: Vec<Vec<u64>> = (0..taken)
            .map(|i| {
                let row = &SAMPLES[i * WIDTH..(i + 1) * WIDTH];
                row.iter().map(|w| w.load(Relaxed)).collect()
            })
            .collect();
        let names = Names {
            base,
            symbols: symbols(),
        };
        assert!(!names.symbols.is_empty(), "nm listed no functions");
        assert!(taken > 0, "SIGPROF never fired");
        println!(
            "# {}: {what} in {wall:.2} s, {taken} samples \
             (timer set to {INTERVAL_US} us of CPU time; the kernel rounds up to its tick)",
            args.shape.name,
        );

        let mut per_symbol: HashMap<&str, u64> = HashMap::new();
        let mut callers: HashMap<&str, HashMap<String, u64>> = HashMap::new();
        for row in &rows {
            let own = names.of(row[0]);
            *per_symbol.entry(own).or_default() += 1;
            // The nearest stack words that point into other functions,
            // innermost first. A hint, not an unwind: a slot a deep frame
            // never wrote still holds some older call's return address.
            let mut chain: Vec<String> = Vec::new();
            let own_short = short(own);
            for &word in row[1..].iter().filter(|&&w| w != 0) {
                let name = short(names.of(word));
                if name != own_short && chain.last() != Some(&name) && chain.len() < 3 {
                    chain.push(name);
                }
            }
            if !chain.is_empty() {
                *callers
                    .entry(own)
                    .or_default()
                    .entry(chain.join(" < "))
                    .or_default() += 1;
            }
        }
        if args.setup {
            println!("{:>9}  fastest set-up phase", "us");
            for (name, best) in phases {
                println!("{:>9.1}  {name}", best * 1e6);
            }
        }
        let share = |n: u64| 100.0 * n as f64 / taken.max(1) as f64;
        println!("{:>7} {:>7}  self time by symbol", "share", "samples");
        for (name, n) in ranked(per_symbol).into_iter().take(25) {
            println!("{:>6.1}% {n:>7}  {}", share(n), short(name));
            if args.callers {
                let under = callers.remove(name).unwrap_or_default();
                for (caller, k) in ranked(under).into_iter().take(3) {
                    println!("{:>16}  └ {:>4.1}% under {caller}", "", share(k));
                }
            }
        }
        if args.lines {
            let pcs: Vec<u64> = rows.iter().map(|r| r[0]).collect();
            println!("{:>7} {:>7}  self time by line", "share", "samples");
            for (line, n) in by_line(base, &pcs).into_iter().take(40) {
                println!("{:>6.1}% {n:>7}  {line}", share(n));
            }
        }
        for (symbol, name) in [
            ("run_native", "Machine::run_native"),
            ("run_counted", "run_counted"),
        ] {
            match names.symbols.iter().find(|s| s.2.contains(symbol)) {
                Some((addr, size, _)) => println!(
                    "# {name} at {addr:#x} (≡ {} mod 64), {size:#x} bytes",
                    addr % 64
                ),
                None => panic!("{name} is `#[inline(never)]` yet nm does not list it"),
            }
        }
    }
}
