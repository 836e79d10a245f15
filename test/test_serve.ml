(* The persistent build service: wire-protocol round-trips, framing, the
   LRU result cache, byte-identity of served images against from-scratch
   builds, warm-state isolation between apps sharing function names, the
   bound on per-app warm state, and a golden-transcript snapshot of a
   scripted build/edit/rebuild session. *)

let ok_exn = function Ok x -> x | Error e -> Alcotest.fail e

let spec = "dce,outline(rounds=2)"

let cfg_of s =
  ok_exn
    (Pipeline.config_of_passes
       ~base:{ Pipeline.default_config with mode = Pipeline.Whole_program }
       s)

let scratch ?(s = spec) srcs =
  Machine.Asm_printer.to_source
    (ok_exn (Pipeline.build_sources ~config:(cfg_of s) srcs)).Pipeline.program

(* Two tiny apps whose modules and functions share names but not bodies:
   the front-end caches key on module name, so serving both through one
   server is exactly the cross-app staleness regression. *)
let app_a =
  [
    ("util", "func helper(v: Int) -> Int {\n  return v * 3 + 1\n}\n");
    ( "main",
      "func main() -> Int {\n\
      \  var acc = 0\n\
      \  acc = acc + helper(7)\n\
      \  acc = acc + helper(9)\n\
      \  return acc & 255\n\
       }\n" );
  ]

let app_b =
  [
    ("util", "func helper(v: Int) -> Int {\n  return v * 5 + 2\n}\n");
    ("main", "func main() -> Int {\n  return helper(3) & 127\n}\n");
  ]

let edit srcs mname snippet =
  List.map
    (fun (m, s) -> if String.equal m mname then (m, s ^ snippet) else (m, s))
    srcs

let build_req ?(id = "r") ?(app = "app") ?(passes = Some spec)
    ?(want_image = true) srcs =
  Serve.Protocol.print_request
    (Serve.Protocol.Build
       {
         br_id = id;
         br_app = app;
         br_mode = "wp";
         br_workers = 0;
         br_passes = passes;
         br_want_image = want_image;
         br_source = Serve.Protocol.Inline srcs;
       })

let serve server req =
  let payload, _ = Serve.Server.handle server req in
  ok_exn (Serve.Protocol.parse_response payload)

let built = function
  | Serve.Protocol.Built b -> b
  | Serve.Protocol.Error_reply { e_message; _ } ->
    Alcotest.failf "error reply: %s" e_message
  | _ -> Alcotest.fail "expected a build reply"

let image (b : Serve.Protocol.built) =
  match b.Serve.Protocol.b_image with
  | Some img -> img
  | None -> Alcotest.fail "reply carries no image"

(* --- protocol ------------------------------------------------------------- *)

let roundtrip_request r =
  let printed = Serve.Protocol.print_request r in
  match Serve.Protocol.parse_request printed with
  | Ok r' when r' = r -> ()
  | Ok _ -> Alcotest.failf "request changed across round-trip:\n%s" printed
  | Error e -> Alcotest.failf "round-trip parse failed (%s):\n%s" e printed

let test_request_roundtrip () =
  List.iter roundtrip_request
    [
      Serve.Protocol.Ping;
      Serve.Protocol.Stats;
      Serve.Protocol.Shutdown;
      Serve.Protocol.Build
        {
          br_id = "b1";
          br_app = "rider";
          br_mode = "thin";
          br_workers = 4;
          br_passes = Some "dce,outline(rounds=5),layout";
          br_want_image = false;
          br_source =
            Serve.Protocol.Seeded
              { sd_profile = "small"; sd_week = 3; sd_mult = 2 };
        };
      (* inline sources are length-prefixed, so newlines, NULs and even a
         line that spells "module ..." must survive *)
      Serve.Protocol.Build
        {
          br_id = "b2";
          br_app = "a";
          br_mode = "wp";
          br_workers = 0;
          br_passes = None;
          br_want_image = true;
          br_source =
            Serve.Protocol.Inline
              [
                ("m1", "func f() -> Int {\n  return 1\n}\n");
                ("m2", "\x00\x01 module fake 999\nnot a real section\n");
              ];
        };
    ]

let roundtrip_response r =
  let printed = Serve.Protocol.print_response r in
  match Serve.Protocol.parse_response printed with
  | Ok r' when r' = r -> ()
  | Ok _ -> Alcotest.failf "response changed across round-trip:\n%s" printed
  | Error e -> Alcotest.failf "round-trip parse failed (%s):\n%s" e printed

let test_response_roundtrip () =
  let sections =
    { Serve.Protocol.sec_text = 900; sec_data = 80; sec_overhead = 20 }
  in
  List.iter roundtrip_response
    [
      Serve.Protocol.Pong;
      Serve.Protocol.Bye;
      Serve.Protocol.Error_reply
        { e_id = "r9"; e_message = "parse error: line 3: what is this" };
      Serve.Protocol.Stats_reply
        {
          c_hits = 3;
          c_misses = 7;
          c_evictions = 1;
          c_entries = 6;
          c_apps = 2;
          c_served = 12;
        };
      Serve.Protocol.Built
        {
          b_id = "r1";
          b_cache_hit = false;
          b_binary_size = 1000;
          b_code_size = 900;
          b_sections = sections;
          b_image_hash = Serve.Protocol.hash_hex "image";
          b_phases = [ ("llvm-link", 0.5); ("machine outliner", 0.25) ];
          b_image = Some "  .text\nx:\n\x00raw bytes\n";
        };
      Serve.Protocol.Built
        {
          b_id = "r2";
          b_cache_hit = true;
          b_binary_size = 1;
          b_code_size = 1;
          b_sections =
            { Serve.Protocol.sec_text = 1; sec_data = 0; sec_overhead = 0 };
          b_image_hash = Serve.Protocol.hash_hex "";
          b_phases = [];
          b_image = None;
        };
    ]

let test_framing () =
  let f = Serve.Protocol.frame "hello" in
  Alcotest.(check string) "frame encoding" "5\nhello" f;
  (match Serve.Protocol.pop_frame (f ^ "4\nrest") with
  | Ok (Some ("hello", rest)) ->
    Alcotest.(check string) "rest preserved" "4\nrest" rest
  | _ -> Alcotest.fail "whole frame not popped");
  (match Serve.Protocol.pop_frame "5\nhel" with
  | Ok None -> ()
  | _ -> Alcotest.fail "partial frame should wait for more bytes");
  (match Serve.Protocol.pop_frame "" with
  | Ok None -> ()
  | _ -> Alcotest.fail "empty buffer should wait for more bytes");
  (match Serve.Protocol.pop_frame (Serve.Protocol.frame "") with
  | Ok (Some ("", "")) -> ()
  | _ -> Alcotest.fail "zero-length payload is a valid frame");
  (match Serve.Protocol.pop_frame "not a length\nx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed header must be an error");
  (match
     Serve.Protocol.pop_frame
       (string_of_int (Serve.Protocol.max_frame + 1) ^ "\n")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized header must be an error");
  (* section lengths follow the frame-header rule *)
  match
    Serve.Protocol.parse_response "built r1\nimage 99999999999999999999\nx\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an oversized image length must be a parse error"

(* Stats replies go through the same field scanner as built replies: an
   unknown field and a bad integer are named, a missing field is not. *)
let test_malformed_stats_replies () =
  let counters =
    "hits: 1\nmisses: 2\nevictions: 0\nentries: 2\napps: 1\nserved: 3\n"
  in
  let expect_error payload want =
    match Serve.Protocol.parse_response payload with
    | Error e -> Alcotest.(check string) payload want e
    | Ok _ -> Alcotest.failf "accepted malformed stats reply:\n%s" payload
  in
  expect_error
    ("stats\n" ^ counters ^ "uptime: 5\n")
    "unknown response field: \"uptime:\"";
  expect_error "stats\nhits: x\n" "bad integer for hits: \"x\"";
  expect_error "stats\nhits: 1\nmisses: 2\n" "incomplete stats reply"

let test_masked_printing () =
  let b =
    Serve.Protocol.Built
      {
        b_id = "r1";
        b_cache_hit = false;
        b_binary_size = 10;
        b_code_size = 9;
        b_sections =
          { Serve.Protocol.sec_text = 9; sec_data = 1; sec_overhead = 0 };
        b_image_hash = Serve.Protocol.hash_hex "img";
        b_phases = [ ("llc", 0.123456) ];
        b_image = Some "0123456789";
      }
  in
  let masked = Serve.Protocol.print_response_masked b in
  if
    String.length masked
    >= String.length (Serve.Protocol.print_response b)
  then Alcotest.fail "masking should elide the image bytes";
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  if not (contains "phase llc *" masked) then
    Alcotest.failf "phase seconds not masked:\n%s" masked;
  if not (contains "[10 bytes elided]" masked) then
    Alcotest.failf "image bytes not elided:\n%s" masked;
  if contains "0123456789" masked then
    Alcotest.fail "image bytes leaked through the mask";
  Alcotest.(check string)
    "masking is the identity on control replies"
    (Serve.Protocol.print_response Serve.Protocol.Pong)
    (Serve.Protocol.print_response_masked Serve.Protocol.Pong)

(* --- server robustness ----------------------------------------------------- *)

let oversized_section = "build x\nmodule m 99999999999999999999999"

let test_malformed_requests () =
  let server = Serve.Server.create () in
  List.iter
    (fun junk ->
      match Serve.Server.handle server junk with
      | payload, `Continue -> (
        match Serve.Protocol.parse_response payload with
        | Ok (Serve.Protocol.Error_reply _) -> ()
        | _ ->
          Alcotest.failf "junk %S should earn an error reply, got:\n%s" junk
            payload)
      | _, `Stop -> Alcotest.failf "junk %S stopped the server" junk)
    [
      "";
      "bogus verb";
      "build r1";
      "build r1\napp: a\nmode: warp9\nworkers: 0\nwant-image: no";
      "build r1\napp: a\nmode: wp\nworkers: 0\nwant-image: no\n\
       module m 999999\ntruncated";
      (* a section length too long for an int once crashed the daemon *)
      oversized_section;
    ];
  (* the server must still be alive and serving *)
  (match serve server (Serve.Protocol.print_request Serve.Protocol.Ping) with
  | Serve.Protocol.Pong -> ()
  | _ -> Alcotest.fail "server did not answer ping after malformed input");
  (* a build whose source fails to compile is an error reply, not a crash *)
  (match serve server (build_req [ ("m", "func broken( {") ]) with
  | Serve.Protocol.Error_reply { e_id; _ } ->
    Alcotest.(check string) "error echoes the request id" "r" e_id
  | _ -> Alcotest.fail "uncompilable source should earn an error reply");
  match Serve.Server.handle server
          (Serve.Protocol.print_request Serve.Protocol.Shutdown)
  with
  | payload, `Stop -> (
    match Serve.Protocol.parse_response payload with
    | Ok Serve.Protocol.Bye -> ()
    | _ -> Alcotest.fail "shutdown should reply bye")
  | _, `Continue -> Alcotest.fail "shutdown should stop the loop"

(* Drive [serve_channels] over temp files: [input] is the raw byte stream
   the client sends; the result is every reply frame, parsed, in order. *)
let serve_stdio input =
  let inp = Filename.temp_file "serve_in" ".bin" in
  let out = Filename.temp_file "serve_out" ".bin" in
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  write inp input;
  let ic = open_in_bin inp and oc = open_out_bin out in
  Serve.Server.serve_channels (Serve.Server.create ()) ic oc;
  close_in ic;
  close_out oc;
  let replies = read out in
  Sys.remove inp;
  Sys.remove out;
  let rec frames acc buf =
    match Serve.Protocol.pop_frame buf with
    | Ok (Some (payload, rest)) ->
      frames (ok_exn (Serve.Protocol.parse_response payload) :: acc) rest
    | Ok None when buf = "" -> List.rev acc
    | _ -> Alcotest.failf "reply stream is not whole frames: %S" buf
  in
  frames [] replies

let test_stdio_transport () =
  let req r = Serve.Protocol.frame (Serve.Protocol.print_request r) in
  let describe = function
    | Serve.Protocol.Pong -> "pong"
    | Serve.Protocol.Bye -> "bye"
    | Serve.Protocol.Error_reply { e_message; _ } -> "error: " ^ e_message
    | Serve.Protocol.Built _ -> "built"
    | Serve.Protocol.Stats_reply _ -> "stats"
  in
  let check label input expected =
    Alcotest.(check (list string))
      label expected
      (List.map describe (serve_stdio input))
  in
  (* the oversized section earns an error and the loop keeps serving; it
     stops at bye, leaving the trailing ping unanswered *)
  check "ping, oversized section, shutdown"
    (req Serve.Protocol.Ping
    ^ Serve.Protocol.frame oversized_section
    ^ req Serve.Protocol.Shutdown ^ req Serve.Protocol.Ping)
    [ "pong"; "error: section length out of range"; "bye" ];
  (* a framing error after a valid frame is answered, then the loop stops
     without reading further *)
  check "framing error after a valid frame"
    (req Serve.Protocol.Ping ^ "12x\n" ^ req Serve.Protocol.Ping)
    [ "pong"; "error: framing: malformed frame header" ];
  check "end of input stops the loop" (req Serve.Protocol.Ping) [ "pong" ]

(* --- result cache ---------------------------------------------------------- *)

let test_cache_key_determinism () =
  let server = Serve.Server.create () in
  let r1 = built (serve server (build_req ~id:"r1" app_a)) in
  Alcotest.(check bool) "first build misses" false r1.b_cache_hit;
  Alcotest.(check string) "miss is byte-identical to scratch" (scratch app_a)
    (image r1);
  let r2 = built (serve server (build_req ~id:"r2" app_a)) in
  Alcotest.(check bool) "identical build hits" true r2.b_cache_hit;
  Alcotest.(check string) "hit serves the same bytes" (image r1) (image r2);
  Alcotest.(check string) "hit and miss agree on the hash" r1.b_image_hash
    r2.b_image_hash;
  (* module order is part of the key: link order changes the image *)
  let r3 = built (serve server (build_req ~id:"r3" (List.rev app_a))) in
  Alcotest.(check bool) "permuted module order misses" false r3.b_cache_hit;
  (* a different spec is a different key even for identical sources *)
  let r4 =
    built
      (serve server (build_req ~id:"r4" ~passes:(Some "outline(rounds=1)") app_a))
  in
  Alcotest.(check bool) "changed spec misses" false r4.b_cache_hit;
  Alcotest.(check string) "changed spec rebuilds from scratch semantics"
    (scratch ~s:"outline(rounds=1)" app_a)
    (image r4);
  match serve server (Serve.Protocol.print_request Serve.Protocol.Stats) with
  | Serve.Protocol.Stats_reply c ->
    Alcotest.(check int) "hits" 1 c.c_hits;
    Alcotest.(check int) "misses" 3 c.c_misses;
    Alcotest.(check int) "entries" 3 c.c_entries;
    Alcotest.(check int) "apps" 1 c.c_apps;
    Alcotest.(check int) "served" 5 c.c_served
  | _ -> Alcotest.fail "expected stats"

let test_lru_eviction_order () =
  let c = Serve.Cache.create ~capacity:2 in
  Serve.Cache.add c "k1" 1;
  Serve.Cache.add c "k2" 2;
  Alcotest.(check (option int)) "k1 present" (Some 1) (Serve.Cache.find c "k1");
  Serve.Cache.add c "k3" 3;
  (* k2 is now least recently used: the k1 hit refreshed k1 *)
  Alcotest.(check (option int)) "k2 evicted" None (Serve.Cache.find c "k2");
  Alcotest.(check (option int)) "k1 survives" (Some 1)
    (Serve.Cache.find c "k1");
  Alcotest.(check (option int)) "k3 survives" (Some 3)
    (Serve.Cache.find c "k3");
  Alcotest.(check (list string))
    "most-recent-first order" [ "k3"; "k1" ]
    (Serve.Cache.keys_by_recency c);
  Alcotest.(check int) "hits" 3 (Serve.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Serve.Cache.misses c);
  Alcotest.(check int) "evictions" 1 (Serve.Cache.evictions c);
  Alcotest.(check int) "entries" 2 (Serve.Cache.entries c);
  (* refreshing an existing key must not evict anyone *)
  Serve.Cache.add c "k1" 11;
  Alcotest.(check int) "refresh evicts nothing" 1 (Serve.Cache.evictions c);
  Alcotest.(check (option int)) "refresh replaces the value" (Some 11)
    (Serve.Cache.find c "k1");
  (* capacity 0 disables caching entirely *)
  let z = Serve.Cache.create ~capacity:0 in
  Serve.Cache.add z "k" 1;
  Alcotest.(check (option int)) "disabled cache never stores" None
    (Serve.Cache.find z "k");
  Alcotest.(check int) "disabled cache stays empty" 0 (Serve.Cache.entries z)

let test_eviction_through_server () =
  (* capacity 1: the second distinct build evicts the first, so repeating
     the first misses again — and still serves scratch-identical bytes *)
  let server = Serve.Server.create ~cache_capacity:1 () in
  let edited = edit app_a "util" "\nfunc extra(v: Int) -> Int {\n  return v + 40\n}\n" in
  let r1 = built (serve server (build_req ~id:"r1" app_a)) in
  let _r2 = built (serve server (build_req ~id:"r2" edited)) in
  let r3 = built (serve server (build_req ~id:"r3" app_a)) in
  Alcotest.(check bool) "evicted entry misses again" false r3.b_cache_hit;
  Alcotest.(check string) "re-built bytes identical" (image r1) (image r3);
  Alcotest.(check string) "and identical to scratch" (scratch app_a) (image r3)

(* --- warm state correctness ------------------------------------------------ *)

let test_cross_app_isolation () =
  (* the PR-6 regression: two apps with name-identical functions alternate
     through one warm server; every served image must equal a from-scratch
     build of that request *)
  let server = Serve.Server.create () in
  let a1 = edit app_a "main" "\nfunc spare(v: Int) -> Int {\n  return v - 1\n}\n" in
  let b1 = edit app_b "util" "\nfunc spare(v: Int) -> Int {\n  return v + 1\n}\n" in
  List.iteri
    (fun i (app, srcs) ->
      let r =
        built (serve server (build_req ~id:(Printf.sprintf "x%d" i) ~app srcs))
      in
      Alcotest.(check string)
        (Printf.sprintf "request %d (%s) identical to scratch" i app)
        (scratch srcs) (image r))
    [
      ("alpha", app_a); ("beta", app_b); ("alpha", a1); ("beta", b1);
      ("alpha", app_a); ("beta", app_b);
    ]

let test_same_app_full_swap () =
  (* swapping an app's entire source set under one app label must fully
     invalidate its warm front-end state *)
  let server = Serve.Server.create () in
  let r1 = built (serve server (build_req ~id:"s1" ~app:"swap" app_a)) in
  Alcotest.(check string) "before swap" (scratch app_a) (image r1);
  let r2 = built (serve server (build_req ~id:"s2" ~app:"swap" app_b)) in
  Alcotest.(check string) "after swap" (scratch app_b) (image r2);
  let r3 = built (serve server (build_req ~id:"s3" ~app:"swap" app_a)) in
  Alcotest.(check bool) "swap back hits the result cache" true r3.b_cache_hit;
  Alcotest.(check string) "swap back" (scratch app_a) (image r3)

let test_warm_state_unit () =
  (* Outliner-level contract: one warm arena pool shared by builds of
     different programs stays byte-identical to the from-scratch
     reference *)
  let p1 = Fuzz.Machgen.generate (Random.State.make [| 5; 11 |]) ~fuel:8 in
  let p2 = Fuzz.Machgen.generate (Random.State.make [| 6; 11 |]) ~fuel:8 in
  let warm = Outcore.Outliner.create_warm () in
  let build ?engine ?warm p =
    Machine.Asm_printer.to_source
      (fst (Outcore.Repeat.run ?engine ?warm ~rounds:3 p))
  in
  let cold = build ~engine:`Scratch in
  Alcotest.(check string) "first build" (cold p1) (build ~warm p1);
  Alcotest.(check string) "rebuild of the same program" (cold p1)
    (build ~warm p1);
  Alcotest.(check string) "different program" (cold p2) (build ~warm p2);
  Alcotest.(check string) "back to the first program" (cold p1)
    (build ~warm p1)

let test_failed_request_leaves_no_state () =
  (* a request that fails in the front end between two builds of one app
     must not change what the next build serves *)
  let edited =
    edit app_a "util" "\nfunc patch(v: Int) -> Int {\n  return v ^ 12\n}\n"
  in
  let broken = edit app_a "main" "\nfunc broken( {\n" in
  let server = Serve.Server.create () in
  ignore (built (serve server (build_req ~id:"a" ~app:"x" app_a)));
  (match serve server (build_req ~id:"bad" ~app:"x" broken) with
  | Serve.Protocol.Error_reply { e_id; _ } ->
    Alcotest.(check string) "error names the failed request" "bad" e_id
  | _ -> Alcotest.fail "a front-end failure should earn an error reply");
  let after = built (serve server (build_req ~id:"a2" ~app:"x" edited)) in
  let fresh =
    built
      (serve (Serve.Server.create ()) (build_req ~id:"a2" ~app:"x" edited))
  in
  Alcotest.(check string) "identical to a fresh server" (image fresh)
    (image after);
  Alcotest.(check string) "identical to a cold build" (scratch edited)
    (image after)

let test_app_state_bound () =
  (* more app labels than the daemon keeps warm state for: the [apps] stat
     stays at the bound, and an evicted label rebuilds cold (the result
     cache is off, so the rebuild really runs) with scratch-identical bytes *)
  let server = Serve.Server.create ~cache_capacity:0 () in
  let label i = Printf.sprintf "a%d" i in
  let srcs i =
    edit app_a "util"
      (Printf.sprintf "\nfunc extra%d(v: Int) -> Int {\n  return v + %d\n}\n"
         i i)
  in
  let first = built (serve server (build_req ~id:"f" ~app:(label 1) (srcs 1))) in
  for i = 2 to 20 do
    ignore (built (serve server (build_req ~app:(label i) (srcs i))))
  done;
  let apps () =
    match serve server (Serve.Protocol.print_request Serve.Protocol.Stats) with
    | Serve.Protocol.Stats_reply c -> c.Serve.Protocol.c_apps
    | _ -> Alcotest.fail "expected a stats reply"
  in
  Alcotest.(check bool) "apps within the bound" true (apps () <= 16);
  let again = built (serve server (build_req ~id:"g" ~app:(label 1) (srcs 1))) in
  Alcotest.(check bool) "evicted app misses" false again.b_cache_hit;
  Alcotest.(check string) "evicted app rebuilds scratch-identical bytes"
    (scratch (srcs 1)) (image again);
  Alcotest.(check string) "and the bytes it first served" (image first)
    (image again);
  Alcotest.(check bool) "still within the bound" true (apps () <= 16)

(* --- golden transcript ----------------------------------------------------- *)

let transcript_steps server =
  let edited =
    edit app_a "util" "\nfunc patch(v: Int) -> Int {\n  return v ^ 12\n}\n"
  in
  List.map
    (fun (label, req) ->
      let payload, _ = Serve.Server.handle server req in
      Printf.sprintf "== %s\n%s" label
        (Serve.Protocol.print_response_masked
           (ok_exn (Serve.Protocol.parse_response payload))))
    [
      ("build", build_req ~id:"r1" ~app:"demo" app_a);
      ("rebuild unchanged", build_req ~id:"r2" ~app:"demo" app_a);
      ("edit util, rebuild", build_req ~id:"r3" ~app:"demo" edited);
      ( "change spec, rebuild",
        build_req ~id:"r4" ~app:"demo" ~passes:(Some "outline(rounds=1)")
          edited );
      ( "repeat the spec change",
        build_req ~id:"r5" ~app:"demo" ~passes:(Some "outline(rounds=1)")
          edited );
      ("stats", Serve.Protocol.print_request Serve.Protocol.Stats);
      ("malformed request", "this is not a request");
      ("ping", Serve.Protocol.print_request Serve.Protocol.Ping);
    ]

let test_snapshot_transcript () =
  let server = Serve.Server.create () in
  let actual = String.concat "\n" (transcript_steps server) ^ "\n" in
  let golden_path = "golden/serve_transcript.golden" in
  (* SERVE_GOLDEN_WRITE=/abs/path regenerates the golden after an intended
     change; check the diff in *)
  match Sys.getenv_opt "SERVE_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc
  | None ->
  let golden =
    let ic = open_in_bin golden_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  if not (String.equal actual golden) then
    Alcotest.failf
      "transcript drifted from %s.\n--- expected ---\n%s--- actual ---\n%s"
      golden_path golden actual

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "masked printing" `Quick test_masked_printing;
          Alcotest.test_case "malformed stats replies" `Quick
            test_malformed_stats_replies;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "malformed requests get error replies" `Quick
            test_malformed_requests;
          Alcotest.test_case "stdio transport" `Quick test_stdio_transport;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key determinism" `Quick
            test_cache_key_determinism;
          Alcotest.test_case "lru eviction order" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "eviction through the server" `Quick
            test_eviction_through_server;
        ] );
      ( "warm state",
        [
          Alcotest.test_case "cross-app isolation" `Quick
            test_cross_app_isolation;
          Alcotest.test_case "same-app full swap" `Quick
            test_same_app_full_swap;
          Alcotest.test_case "warm pool across builds" `Quick
            test_warm_state_unit;
          Alcotest.test_case "failed request leaves no state" `Quick
            test_failed_request_leaves_no_state;
          Alcotest.test_case "app state is bounded" `Quick
            test_app_state_bound;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "golden transcript" `Quick
            test_snapshot_transcript;
        ] );
    ]
