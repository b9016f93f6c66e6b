//! `mics-rankd` — one OS process per data-plane rank.
//!
//! The thread harness (`run_ranks_on`) shares one address space, so a dying
//! rank can never take its peers' memory with it. This binary gives each
//! rank a real failure domain: a process that joins a socket world through a
//! rendezvous hub and can be SIGKILLed without warning. Three subcommands:
//!
//! * `hub` — serve the rendezvous/exchange hub on an address;
//! * `worker` — join a world as one rank and run collectives, optionally
//!   surviving a designated victim's crash by shrinking the group;
//! * `bench` — orchestrate the whole recovery experiment: spawn a hub and
//!   `--world` worker processes, SIGKILL the victim mid-all-gather, and
//!   write `results/ext_multiproc.json` from the survivors' reports.
//!
//! Worker processes print exactly one JSON document on stdout (diagnostics
//! go to stderr), so the orchestrator can parse their reports wholesale.

use mics_bench::{Json, Table, ToJson};
use mics_cli::Flags;
use mics_dataplane::{connect_world, CommError, SocketWorldConfig};
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "\
mics-rankd — process-per-rank data plane for the MiCS reproduction

USAGE:
  mics-rankd hub    [--addr HOST:PORT|unix:PATH]
  mics-rankd worker --addr A --rank R --world W [--victim V] [--iters N]
                    [--payload P] [--timeout-ms T] [--grow-addr G]
  mics-rankd worker --role replace --grow-addr G --rank R --world W
                    [--timeout-ms T]
  mics-rankd bench  [--out results/ext_multiproc.json] [--world N] [--victim V]
                    [--grow 0|1]

`worker` joins the hub at A as rank R of W. Without --victim it runs N
all-gathers and exits; with --victim V it collectivizes until rank V dies,
then removes V from the group and proves the shrunk world still gathers.
The process whose own rank is V gathers forever, waiting to be killed.

With --grow-addr G, survivors additionally re-admit a recovered rank: after
the shrink proof they rendezvous at the second hub G at the *full* world
size, where a fresh `--role replace` process occupies the dead rank's slot,
restores its state from rank 0's broadcast, and the grown world gathers.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("hub") => run_hub(&args[1..]),
        Some("worker") => run_worker(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// A subcommand's flags, every one among its `known` and taking a value.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Flags, String> {
    Flags::parse(args, &[], USAGE)?.only(known)
}

/// Serve the rendezvous hub until killed. The resolved address (useful with
/// `--addr 127.0.0.1:0`) is printed on stdout.
fn run_hub(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["addr"])?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:0");
    let hub = mics_dataplane::Hub::spawn(addr).map_err(|e| format!("cannot bind '{addr}': {e}"))?;
    println!("hub listening on {}", hub.addr());
    std::io::stdout().flush().ok();
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// The "model state" the grown world restores to the replacement rank —
/// a deterministic stand-in for the resharded checkpoint, so the admission
/// test verifies actual payload movement, not just membership.
fn grow_state(world: usize) -> Vec<f32> {
    (0..world * 16).map(|i| (i * i % 251) as f32).collect()
}

/// The grow phase every participant of the second rendezvous runs: join the
/// full-size world at the grow hub, restore state from rank 0's broadcast,
/// and prove the grown world gathers. Returns the JSON report fragment.
fn run_grow_phase(
    grow_addr: &str,
    rank: usize,
    world: usize,
    timeout_ms: usize,
) -> Result<Json, String> {
    let mut cfg = SocketWorldConfig::new(grow_addr, rank, world);
    cfg.timeout = Duration::from_millis(timeout_ms as u64);
    let comm = connect_world(cfg).map_err(|e| format!("rank {rank}: grow rendezvous: {e}"))?;
    comm.try_barrier().map_err(|e| format!("rank {rank}: grow barrier: {e}"))?;
    // Rank 0 re-seeds the recovered slot: the replacement joins with no
    // state and receives the survivors' copy, exactly like the resharding
    // restore after an elastic grow.
    let state = grow_state(world);
    let restored = comm
        .try_broadcast(0, &state)
        .map_err(|e| format!("rank {rank}: grow state broadcast: {e}"))?;
    let state_ok = restored == state;
    let gathered = comm
        .try_all_gather(&[rank as f32], None)
        .map_err(|e| format!("rank {rank}: post-grow gather: {e}"))?;
    let expected: Vec<f32> = (0..world).map(|r| r as f32).collect();
    Ok(Json::obj([
        ("grown_world", Json::from(comm.world())),
        ("grown_rank", Json::from(comm.rank())),
        ("grow_state_ok", Json::from(state_ok)),
        ("grow_post_ok", Json::from(gathered == expected)),
    ]))
}

/// Join the world and run the role picked by `--victim` / `--role`.
fn run_worker(args: &[String]) -> Result<(), String> {
    let known =
        ["addr", "rank", "world", "victim", "iters", "payload", "timeout-ms", "grow-addr", "role"];
    let flags = parse_flags(args, &known)?;
    let rank = flags.required("rank")?.parse::<usize>().map_err(|e| format!("--rank: {e}"))?;
    let world = flags.required("world")?.parse::<usize>().map_err(|e| format!("--world: {e}"))?;
    let victim =
        flags.get("victim").map(str::parse).transpose().map_err(|e| format!("--victim: {e}"))?;
    let iters = flags.num("iters", 50)?;
    let payload_len = flags.num("payload", 64)?;
    let timeout_ms = flags.num("timeout-ms", 10_000)?;
    let grow_addr = flags.get("grow-addr");

    // The replacement process: it never saw the first world — it exists
    // only to be admitted into the grown one at the dead rank's slot.
    if flags.get("role") == Some("replace") {
        let gaddr = grow_addr.ok_or("--role replace requires --grow-addr")?;
        eprintln!("rank {rank}: replacement joining grow hub {gaddr}");
        let mut doc = run_grow_phase(gaddr, rank, world, timeout_ms)?;
        if let Json::Obj(pairs) = &mut doc {
            pairs.insert(0, ("role".into(), Json::from("replacement")));
            pairs.insert(0, ("rank".into(), Json::from(rank)));
        }
        println!("{}", doc.pretty());
        return Ok(());
    }

    let addr = flags.required("addr")?;
    let mut cfg = SocketWorldConfig::new(addr, rank, world);
    cfg.timeout = Duration::from_millis(timeout_ms as u64);
    let mut comm = connect_world(cfg).map_err(|e| format!("rank {rank}: cannot join: {e}"))?;
    comm.try_barrier().map_err(|e| format!("rank {rank}: join barrier failed: {e}"))?;

    let payload = vec![rank as f32; payload_len];
    match victim {
        // The designated victim gathers until someone kills it.
        Some(v) if v == rank => {
            eprintln!("rank {rank}: victim armed, gathering until killed");
            loop {
                if let Err(e) = comm.try_all_gather(&payload, None) {
                    return Err(format!("rank {rank}: victim outlived the experiment: {e}"));
                }
            }
        }
        // A survivor: gather until the victim's death poisons the world,
        // then shrink the group and prove it still collectivizes.
        Some(v) => {
            let mut iters_before = 0u64;
            let (err, detected_in) = loop {
                let call = Instant::now();
                match comm.try_all_gather(&payload, None) {
                    Ok(all) => {
                        assert_eq!(all.len(), world * payload_len, "short gather");
                        iters_before += 1;
                    }
                    Err(e) => break (e, call.elapsed()),
                }
            };
            eprintln!("rank {rank}: detected failure after {iters_before} gathers: {err}");
            let failed_rank = match err {
                CommError::RankFailed { rank } | CommError::PeerDisconnected { rank } => Some(rank),
                _ => None,
            };
            let shrunk =
                comm.remove_rank(v).map_err(|e| format!("rank {rank}: rebuild failed: {e}"))?;
            let gathered = shrunk
                .try_all_gather(&[rank as f32], None)
                .map_err(|e| format!("rank {rank}: post-rebuild gather failed: {e}"))?;
            let expected: Vec<f32> = (0..world).filter(|r| *r != v).map(|r| r as f32).collect();
            let mut fields = vec![
                ("rank".to_string(), Json::from(rank)),
                ("iters_before".to_string(), Json::from(iters_before)),
                ("detect_ms".to_string(), Json::from(detected_in.as_secs_f64() * 1e3)),
                ("error".to_string(), Json::from(err.to_string())),
                ("failed_rank".to_string(), failed_rank.map(Json::from).unwrap_or(Json::Null)),
                ("shrunk_world".to_string(), Json::from(shrunk.world())),
                ("shrunk_rank".to_string(), Json::from(shrunk.rank())),
                ("post_ok".to_string(), Json::from(gathered == expected)),
            ];
            // Elastic grow: drop the shrunk group, rendezvous at the second
            // hub at the original world size (our original rank), and admit
            // the replacement occupying the dead slot.
            if let Some(gaddr) = grow_addr {
                drop(shrunk);
                drop(comm);
                eprintln!("rank {rank}: survivor re-joining at grow hub {gaddr}");
                if let Json::Obj(pairs) = run_grow_phase(gaddr, rank, world, timeout_ms)? {
                    fields.extend(pairs);
                }
            }
            let doc = Json::Obj(fields);
            println!("{}", doc.pretty());
            Ok(())
        }
        // Clean run: a fixed number of verified all-gathers.
        None => {
            for _ in 0..iters {
                let all = comm
                    .try_all_gather(&payload, None)
                    .map_err(|e| format!("rank {rank}: gather failed: {e}"))?;
                for (r, chunk) in all.chunks(payload_len).enumerate() {
                    assert!(
                        chunk.iter().all(|&x| x == r as f32),
                        "rank {rank}: corrupted contribution from rank {r}"
                    );
                }
            }
            comm.try_barrier().map_err(|e| format!("rank {rank}: exit barrier failed: {e}"))?;
            let doc = Json::obj([
                ("rank", Json::from(rank)),
                ("iters", Json::from(iters)),
                ("ok", Json::from(true)),
            ]);
            println!("{}", doc.pretty());
            Ok(())
        }
    }
}

/// How long a survivor may take to observe the SIGKILL. The worker's own
/// rendezvous timeout is 10 s; the kill must surface as a poison event far
/// faster than that (the hub sees the dead peer's EOF immediately).
const DETECT_DEADLINE_MS: f64 = 5_000.0;

/// Spawn the whole experiment, assert its claims, write the artifact.
fn run_bench(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["out", "world", "victim", "grow"])?;
    let out = flags.get("out").unwrap_or("results/ext_multiproc.json").to_string();
    let world = flags.num("world", 4)?;
    let victim = flags.num("victim", 2)?;
    let grow = flags.num("grow", 1)? != 0;
    assert!(world >= 3 && victim < world, "need at least two survivors");

    // A wedged rendezvous must fail the bench, not hang it.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(120));
        eprintln!("bench exceeded its 120 s wall-clock budget — rendezvous deadlock?");
        std::process::exit(3);
    });

    let hub = mics_dataplane::Hub::spawn("127.0.0.1:0").map_err(|e| e.to_string())?;
    // A second, independent rendezvous: survivors + the replacement meet
    // here at the full world size after the shrink proof (elastic grow).
    let grow_hub = if grow {
        Some(mics_dataplane::Hub::spawn("127.0.0.1:0").map_err(|e| e.to_string())?)
    } else {
        None
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    eprintln!("hub on {}, spawning {world} rank processes, victim {victim}", hub.addr());

    // Kill-and-reap every still-live child on any exit path (early `?`
    // returns included) so a failed claim never leaves zombie ranks behind.
    struct Reaper(Vec<Option<std::process::Child>>);
    impl Drop for Reaper {
        fn drop(&mut self) {
            for child in self.0.iter_mut().flatten() {
                child.kill().ok();
                child.wait().ok();
            }
        }
    }

    let mut children = Reaper(Vec::new());
    for rank in 0..world {
        let mut args = vec![
            "worker".to_string(),
            "--addr".to_string(),
            hub.addr().to_string(),
            "--rank".to_string(),
            rank.to_string(),
            "--world".to_string(),
            world.to_string(),
            "--victim".to_string(),
            victim.to_string(),
            "--timeout-ms".to_string(),
            "10000".to_string(),
        ];
        if let Some(gh) = &grow_hub {
            args.extend(["--grow-addr".to_string(), gh.addr().to_string()]);
        }
        let child = Command::new(&exe)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn rank {rank}: {e}"))?;
        children.0.push(Some(child));
    }

    // Wait until every rank has joined, let the gathers flow, then SIGKILL
    // the victim mid-collective.
    let join_deadline = Instant::now() + Duration::from_secs(10);
    while hub.connections() < world {
        assert!(Instant::now() < join_deadline, "ranks failed to join the hub in time");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));
    let mut victim_child = children.0[victim].take().expect("victim child");
    let killed = victim_child.kill();
    victim_child.wait().ok();
    killed.map_err(|e| format!("cannot SIGKILL the victim: {e}"))?;
    eprintln!("victim rank {victim} SIGKILLed");

    // Grow: a fresh process takes the dead rank's slot at the second hub.
    let mut replacement = grow_hub
        .as_ref()
        .map(|gh| {
            eprintln!("spawning replacement for rank {victim} at grow hub {}", gh.addr());
            Command::new(&exe)
                .args([
                    "worker",
                    "--role",
                    "replace",
                    "--grow-addr",
                    gh.addr(),
                    "--rank",
                    &victim.to_string(),
                    "--world",
                    &world.to_string(),
                    "--timeout-ms",
                    "30000",
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot spawn the replacement: {e}"))
        })
        .transpose()?;

    // Collect the survivors' reports.
    let mut table = Table::new(
        "Extension — SIGKILL mid-all-gather, process-per-rank socket transport",
        &["rank", "gathers before kill", "detect ms", "error", "new rank", "post gather"],
    );
    let mut max_detect_ms: f64 = 0.0;
    let mut all_recovered = true;
    for (rank, slot) in children.0.iter_mut().enumerate() {
        let Some(child) = slot.take() else { continue };
        let output = child.wait_with_output().map_err(|e| e.to_string())?;
        assert!(output.status.success(), "survivor rank {rank} exited with {}", output.status);
        let text = String::from_utf8_lossy(&output.stdout);
        let doc = Json::parse(&text)
            .map_err(|e| format!("survivor rank {rank} wrote malformed JSON: {e}\n{text}"))?;
        let num = |k: &str| doc.get(k).and_then(Json::as_num).expect(k);
        let iters_before = num("iters_before");
        let detect_ms = num("detect_ms");
        let post_ok = doc.get("post_ok") == Some(&Json::Bool(true));
        assert!(iters_before >= 1.0, "rank {rank} never gathered before the kill");
        assert!(
            detect_ms < DETECT_DEADLINE_MS,
            "rank {rank} took {detect_ms} ms to observe the kill"
        );
        assert_eq!(num("failed_rank") as usize, victim, "wrong rank blamed");
        assert_eq!(num("shrunk_world") as usize, world - 1);
        assert_eq!(num("shrunk_rank") as usize, rank - usize::from(rank > victim));
        assert!(post_ok, "rank {rank}: post-rebuild gather returned the wrong world");
        if grow {
            assert_eq!(num("grown_world") as usize, world, "rank {rank}: grow world wrong");
            assert_eq!(num("grown_rank") as usize, rank, "rank {rank}: kept rank changed");
            assert_eq!(doc.get("grow_post_ok"), Some(&Json::Bool(true)), "rank {rank}: grow");
        }
        max_detect_ms = max_detect_ms.max(detect_ms);
        all_recovered &= post_ok;
        table.row(vec![
            rank.to_string(),
            format!("{iters_before}"),
            format!("{detect_ms:.2}"),
            doc.get("error").and_then(Json::as_str).unwrap_or("?").to_string(),
            format!("{}", num("shrunk_rank") as usize),
            if post_ok { "ok".into() } else { "WRONG".into() },
        ]);
    }
    table.print();
    println!(
        "\nall {} survivors detected the SIGKILL within {max_detect_ms:.2} ms \
         (deadline {DETECT_DEADLINE_MS} ms) and rebuilt a working world of {}",
        world - 1,
        world - 1
    );

    // The replacement's own report closes the elastic loop: state restored
    // from rank 0, full-world gather verified, dead slot re-occupied.
    let mut replacement_admitted = false;
    if let Some(child) = replacement.take() {
        let output = child.wait_with_output().map_err(|e| e.to_string())?;
        assert!(output.status.success(), "replacement exited with {}", output.status);
        let text = String::from_utf8_lossy(&output.stdout);
        let doc = Json::parse(&text)
            .map_err(|e| format!("replacement wrote malformed JSON: {e}\n{text}"))?;
        let num = |k: &str| doc.get(k).and_then(Json::as_num).expect(k);
        assert_eq!(num("rank") as usize, victim, "replacement took the wrong slot");
        assert_eq!(num("grown_world") as usize, world);
        assert_eq!(doc.get("grow_state_ok"), Some(&Json::Bool(true)), "state restore failed");
        assert_eq!(doc.get("grow_post_ok"), Some(&Json::Bool(true)), "grown world broken");
        replacement_admitted = true;
        println!(
            "replacement admitted at rank {victim}: state restored via broadcast, \
             grown world of {world} gathers"
        );
    }

    let doc = Json::obj([
        ("survivors", table.to_json()),
        ("transport", Json::from("socket")),
        ("world", Json::from(world)),
        ("victim", Json::from(victim)),
        ("detect_deadline_ms", Json::from(DETECT_DEADLINE_MS)),
        ("max_detect_ms", Json::from(max_detect_ms)),
        ("shrunk_world", Json::from(world - 1)),
        ("post_gather", Json::arr((0..world).filter(|r| *r != victim).map(Json::from))),
        ("all_survivors_recovered", Json::from(all_recovered)),
        ("grow", Json::from(grow)),
        ("grown_world", if grow { Json::from(world) } else { Json::Null }),
        ("replacement_admitted", Json::from(replacement_admitted)),
    ]);
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("cannot write '{out}': {e}"))?;
    println!("[results written to {out}]");
    Ok(())
}
