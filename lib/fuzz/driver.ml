type stats = {
  programs : int;
  skipped : int;
  points_checked : int;
}

let null_log _ = ()

(* Every program gets its own child rng, so a failure reproduces from
   (seed, index) alone no matter how much the generators drift between
   runs. *)
let rng_for ~seed ~index = Random.State.make [| seed; index |]

let swiftlet_report ~seed ~index p (f : Lattice.failure) =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "=== fuzz divergence (swiftlet) ===\n";
  Printf.bprintf buf "reproduce: sizeopt fuzz --seed %d --count %d  (program #%d)\n"
    seed (index + 1) index;
  Printf.bprintf buf "lattice point: %s\n" f.point;
  Printf.bprintf buf "%s\n" f.reason;
  Printf.bprintf buf "--- reduced program (%d lines) ---\n%s"
    (Swiftgen.source_lines p) (Swiftgen.print_source p);
  Buffer.contents buf

let non_blank_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let machine_report ~seed ~index p (f : Lattice.failure) =
  let src = Machine.Asm_printer.to_source p in
  let lines = non_blank_lines src in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "=== fuzz divergence (machine) ===\n";
  Printf.bprintf buf "reproduce: sizeopt fuzz --seed %d --count %d  (program #%d)\n"
    seed (index + 1) index;
  Printf.bprintf buf "lattice point: %s\n" f.point;
  Printf.bprintf buf "%s\n" f.reason;
  Printf.bprintf buf "--- reduced program (%d lines) ---\n%s" lines src;
  Buffer.contents buf

let fuzz ?(log = null_log) ?(verify_each = false) ~seed ~count ~fuel () =
  let skipped = ref 0 and points = ref 0 in
  let failure = ref None in
  let i = ref 0 in
  while !failure = None && !i < count do
    let index = !i in
    let st = rng_for ~seed ~index in
    (* Three Swiftlet programs to one direct machine program. *)
    if index mod 4 = 3 then begin
      let p = Machgen.generate st ~fuel in
      match Lattice.check_machine p with
      | Lattice.Pass n -> points := !points + n
      | Lattice.Skip reason ->
        incr skipped;
        log (Printf.sprintf "#%d skipped (machine): %s" index reason)
      | Lattice.Fail f ->
        log (Printf.sprintf "#%d FAILED (machine) at %s; shrinking..." index
               f.point);
        let p', f' = Shrink.machine p f in
        failure := Some (machine_report ~seed ~index p' f')
    end
    else begin
      let p = Swiftgen.generate st ~fuel in
      match Lattice.check ~verify_each p with
      | Lattice.Pass n -> points := !points + n
      | Lattice.Skip reason ->
        incr skipped;
        log (Printf.sprintf "#%d skipped: %s" index reason)
      | Lattice.Fail f ->
        log (Printf.sprintf "#%d FAILED at %s; shrinking..." index f.point);
        let p', f' = Shrink.swiftlet ~verify_each p f in
        failure := Some (swiftlet_report ~seed ~index p' f')
    end;
    incr i
  done;
  match !failure with
  | Some report -> Error report
  | None -> Ok { programs = !i; skipped = !skipped; points_checked = !points }

(* --- self-test --------------------------------------------------------------- *)

(* What a fault-injection phase needs to know about its program kind. *)
type 'p programs = {
  word : string;  (** how reports name the kind *)
  generate : Random.State.t -> 'p;
  check : 'p -> Lattice.verdict;
  shrink : 'p -> Lattice.failure -> 'p * Lattice.failure;
  lines : 'p -> int;
  print : 'p -> string;
}

(* Machine programs run the full machine lattice, both while hunting and
   while shrinking. *)
let machine_programs =
  {
    word = "machine";
    generate = (fun st -> Machgen.generate st ~fuel:8);
    check = Lattice.check_machine;
    shrink = (fun p f -> Shrink.machine p f);
    lines = (fun p -> non_blank_lines (Machine.Asm_printer.to_source p));
    print = Machine.Asm_printer.to_source;
  }

(* Faults that need front-end programs (thin-WPO shards by module; the
   serve daemon replays source edits) die in their own differential slice,
   so their phases generate Swiftlet programs and run only [check] — the
   slice the fault must trip — both while hunting and while shrinking; a
   full lattice sweep per deletion attempt would dominate the self-test.
   Each slice check builds the program several times over, so a full
   400-check shrink budget would cost minutes; 150 checks reaches the same
   one-screen reproducer on tiny fuel-10 programs. *)
let swiftlet_programs check =
  {
    word = "Swiftlet";
    generate = (fun st -> Swiftgen.generate st ~fuel:10);
    check;
    shrink = Shrink.swiftlet_against ~max_checks:150 ~check;
    lines = Swiftgen.source_lines;
    print = Swiftgen.print_source;
  }

(* One fault-injection phase: flip [flag], fuzz programs until the
   divergence appears, shrink it, and demand a small reproducer that still
   fails.  Each fault uses its own seed salt so the phases explore
   independent program streams. *)
let fault_phase ~log ~seed progs ~salt ~flag ~fault_name ~max_reproducer_lines
    () =
  let max_attempts = 100 in
  flag := true;
  Fun.protect
    ~finally:(fun () -> flag := false)
    (fun () ->
      let found = ref None in
      let attempt = ref 0 in
      while !found = None && !attempt < max_attempts do
        let index = !attempt in
        let p = progs.generate (rng_for ~seed:(seed + salt) ~index) in
        (match progs.check p with
        | Lattice.Fail f ->
          log
            (Printf.sprintf
               "injected %s bug caught on attempt %d at %s; shrinking..."
               fault_name index f.point);
          found := Some (p, f)
        | Lattice.Pass _ | Lattice.Skip _ -> ());
        incr attempt
      done;
      match !found with
      | None ->
        Error
          (Printf.sprintf
             "self-test: the injected %s bug was NOT caught in %d random \
              %s programs"
             fault_name max_attempts progs.word)
      | Some (p, f) -> (
        let p', f' = progs.shrink p f in
        let lines = progs.lines p' in
        if lines > max_reproducer_lines then
          Error
            (Printf.sprintf
               "self-test: %s reproducer still %d lines after shrinking \
                (want <= %d)\n--- program ---\n%s"
               fault_name lines max_reproducer_lines (progs.print p'))
        else
          match progs.check p' with
          | Lattice.Fail _ ->
            Ok
              (Printf.sprintf
                 "injected %s bug caught and shrunk to %d lines\n\
                  offending point: %s\n\
                  %s\n\
                  --- reproducer ---\n\
                  %s"
                 fault_name lines f'.point f'.reason (progs.print p'))
          | _ ->
            Error
              (Printf.sprintf
                 "self-test: shrunk %s reproducer no longer fails (unsound \
                  shrink)"
                 fault_name)))

let self_test ?(log = null_log) ~seed () =
  let machine = fault_phase ~log ~seed machine_programs in
  let swiftlet check = fault_phase ~log ~seed (swiftlet_programs check) in
  let phases =
    [
      (* The LR-legality fault — execution-oracle divergence. *)
      machine ~salt:7919 ~flag:Outcore.Legality.unsafe_outline_lr
        ~fault_name:"LR-legality" ~max_reproducer_lines:30;
      (* Corrupt the incremental engine's dirty-set invalidation so it
         outlines from stale cached sequences; the incremental-vs-scratch
         differential must catch the stale-cache divergence. *)
      machine ~salt:104729 ~flag:Outcore.Outliner.fault_skip_invalidation
        ~fault_name:"stale-dirty-set" ~max_reproducer_lines:40;
      (* Truncate thin-WPO's window keys, which join summary entries, to
         six bits so unrelated patterns collide in the global decision
         table and shards rewrite call sites against the wrong hosted
         body; the thin lattice differentials must catch the corruption. *)
      swiftlet Lattice.check_thin ~salt:224737
        ~flag:Thinwpo.Summary.fault_truncate_hash
        ~fault_name:"summary-hash-truncation" ~max_reproducer_lines:60;
      (* Let thin-WPO's per-module scan memos reuse a block's row by
         (function, label) alone, so shards key the blocks the previous
         round rewrote from their stale rows; the thin lattice
         differentials must catch the wrong keys and call sites. *)
      swiftlet Lattice.check_thin ~salt:49979687
        ~flag:Thinwpo.Engine.fault_stale_shard_state
        ~fault_name:"stale-shard-state" ~max_reproducer_lines:60;
      (* Drop the module-content component of the serve daemon's
         result-cache key, so an edited app hits the previous build's
         image; the serve-vs-cold replay differential must catch the stale
         bytes. *)
      swiftlet Lattice.check_serve ~salt:1299709
        ~flag:Serve.Server.fault_stale_cache_entry
        ~fault_name:"stale-serve-cache" ~max_reproducer_lines:60;
      (* Break the block splitter's elision test so it judges adjacency in
         the pre-split block order and drops branches layout must
         materialize; the stitch differential in check_machine must catch
         the dangling fallthrough, via Program.validate or oracle
         divergence. *)
      machine ~salt:15485863 ~flag:Blocklayout.fault_drop_materialized_branch
        ~fault_name:"dropped-materialized-branch" ~max_reproducer_lines:40;
      (* Truncate global-merge fingerprints to six bits so unequal
         functions land in one optimistic group AND skip the serial
         confirmation round that exists to reject exactly those groups;
         the gmerge slice must catch the surviving bad merge via the
         validator or oracle divergence. *)
      swiftlet Lattice.check_gmerge ~salt:32452843
        ~flag:Merge.fault_drop_rollback
        ~fault_name:"dropped-merge-rollback" ~max_reproducer_lines:60;
    ]
  in
  (* Phases run in order; the first that fails to catch or shrink its
     fault ends the self-test. *)
  let rec run reports = function
    | [] -> Ok (String.concat "\n\n" (List.rev reports))
    | phase :: rest -> (
      match phase () with Error _ as e -> e | Ok r -> run (r :: reports) rest)
  in
  run [] phases
