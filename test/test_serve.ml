(** Tests for the certification service ([Cas_serve]): frame codec
    round-trips and adversarial inputs, protocol encode/decode, the
    persistent worker pool's drain semantics under a multi-domain
    hammer, in-flight dedup (N identical requests → one execution, N
    responses), admission control, graceful drain, metrics consistency,
    cross-process disk-cache safety, an in-process end-to-end daemon
    whose verdict texts must be byte-identical to the one-shot CLI
    rendering, and (a [`Slow] case) the daemon's throughput under a Zipf
    client fleet against one [casc sim] process per request. *)

open Cas_serve

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Fmt.str "%s/cascd-test-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

(* ------------------------------------------------------------------ *)
(* Cross-process disk-cache safety                                     *)
(* ------------------------------------------------------------------ *)

(* Two forked processes hammer the same disk cache directory with the
   same and different modules; a torn or corrupted entry would fail a
   later [check_passes] or poison the parent's warm run. Must run
   before anything spawns domains (fork + domains don't mix). *)
let test_cross_process_cache () =
  let dir =
    Fmt.str "%s/cascd-cache-%d" (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let worker (srcs : string list) : unit =
    Cas_compiler.Cache.set_default_dir (Some dir);
    try
      for _ = 1 to 3 do
        List.iter
          (fun src ->
            let reports =
              Cascompcert.Framework.check_passes (Cas_langs.Parse.clight src)
            in
            if
              not
                (List.for_all
                   (fun r ->
                     Cascompcert.Framework.sim_ok
                       r.Cascompcert.Framework.outcome)
                   reports)
            then Unix._exit 3)
          srcs
      done;
      Unix._exit 0
    with _ -> Unix._exit 4
  in
  let spawn srcs =
    match Unix.fork () with
    | 0 ->
      worker srcs;
      Unix._exit 0
    | pid -> pid
  in
  let pid1 = spawn [ Corpus.counter_src; Corpus.fib_src ] in
  let pid2 = spawn [ Corpus.fib_src; Corpus.counter_src ] in
  let wait pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  check tint "first process clean" 0 (wait pid1);
  check tint "second process clean" 0 (wait pid2);
  (* the survivor's entries must serve a warm, correct third run *)
  Cas_compiler.Cache.set_default_dir (Some dir);
  let reports =
    Cascompcert.Framework.check_passes (Cas_langs.Parse.clight Corpus.fib_src)
  in
  check tbool "warm reread verdicts ok" true
    (List.for_all
       (fun r -> Cascompcert.Framework.sim_ok r.Cascompcert.Framework.outcome)
       reports);
  Cas_compiler.Cache.set_default_dir None

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r = try Ok (f a b) with e -> Error e in
  (try Unix.close a with Unix.Unix_error _ -> ());
  (try Unix.close b with Unix.Unix_error _ -> ());
  match r with Ok v -> v | Error e -> raise e

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let docs =
        [
          Cas_diag.Json.Null;
          Cas_diag.Json.Int (-7);
          Cas_diag.Json.Str "line\nbreak\ttab\001ctl";
          Cas_diag.Json.Obj
            [
              ("k", Cas_diag.Json.List [ Cas_diag.Json.Bool true ]);
              ("empty", Cas_diag.Json.Obj []);
            ];
        ]
      in
      List.iter
        (fun d ->
          check tbool "write ok" true (Frame.write a d = Ok ());
          check tbool "read back equal" true (Frame.read b = Ok d))
        docs)

let test_frame_oversized () =
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (Frame.max_payload + 1));
      check tbool "header sent" true (Unix.write a header 0 4 = 4);
      match Frame.read b with
      | Error (Frame.Oversized { size; limit }) ->
        check tint "reported size" (Frame.max_payload + 1) size;
        check tint "reported limit" Frame.max_payload limit
      | _ -> Alcotest.fail "expected Oversized")

let test_frame_bad_length () =
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (-5l);
      ignore (Unix.write a header 0 4);
      match Frame.read b with
      | Error (Frame.Bad_length n) -> check tint "negative length" (-5) n
      | _ -> Alcotest.fail "expected Bad_length")

let test_frame_malformed () =
  with_socketpair (fun a b ->
      let payload = Bytes.of_string "{\"unterminated\": " in
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
      ignore (Unix.write a header 0 4);
      ignore (Unix.write a payload 0 (Bytes.length payload));
      (match Frame.read b with
      | Error (Frame.Malformed _) -> ()
      | _ -> Alcotest.fail "expected Malformed");
      (* the stream stays in sync: a good frame after the bad one *)
      check tbool "next frame fine" true
        (Frame.write a (Cas_diag.Json.Int 1) = Ok ()
        && Frame.read b = Ok (Cas_diag.Json.Int 1)))

let test_frame_closed_and_stopped () =
  with_socketpair (fun a b ->
      Unix.close a;
      check tbool "eof is Closed" true (Frame.read b = Error Frame.Closed));
  with_socketpair (fun _a b ->
      check tbool "stop flag wins while idle" true
        (Frame.read ~should_stop:(fun () -> true) b = Error Frame.Stopped))

(* random documents survive the framed round trip *)
let gen_json =
  let open QCheck.Gen in
  sized_size (int_bound 3) (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [
                return Cas_diag.Json.Null;
                map (fun b -> Cas_diag.Json.Bool b) bool;
                map (fun i -> Cas_diag.Json.Int i) small_signed_int;
                map (fun s -> Cas_diag.Json.Str s) string_printable;
              ]
          else
            oneof
              [
                map
                  (fun l -> Cas_diag.Json.List l)
                  (list_size (int_bound 3) (self (n - 1)));
                map
                  (fun kvs -> Cas_diag.Json.Obj kvs)
                  (list_size (int_bound 3)
                     (pair string_printable (self (n - 1))));
              ])
        n)

let prop_frame_roundtrip =
  QCheck.Test.make ~count:100 ~name:"framed json round trip"
    (QCheck.make gen_json ~print:Cas_diag.Json.to_string)
    (fun d ->
      with_socketpair (fun a b ->
          Frame.write a d = Ok () && Frame.read b = Ok d))

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let roundtrip_request k =
  let r = { Protocol.id = 42; kind = k } in
  match Protocol.decode_request (Protocol.encode_request r) with
  | Ok r' -> r' = r
  | Error _ -> false

let test_protocol_roundtrip () =
  List.iter
    (fun k -> check tbool (Protocol.kind_name k) true (roundtrip_request k))
    [
      Protocol.Ping;
      Protocol.Compile { source = "int x = 0;" };
      Protocol.Certify { source = Corpus.counter_src };
      Protocol.Link
        { objects = [ "{}"; "{}" ]; entries = [ "f"; "g" ]; certify = true };
      Protocol.Drf
        { source = "s"; entries = [ "inc"; "inc" ]; with_lock = true };
      Protocol.Tso { source = "s"; entries = [ "main" ] };
      Protocol.Metrics;
      Protocol.Shutdown;
    ];
  let resp =
    {
      Protocol.rid = 7;
      status = Protocol.Soverloaded;
      payload = Protocol.error_payload "queue full";
    }
  in
  check tbool "response round trip" true
    (Protocol.decode_response (Protocol.encode_response resp) = Ok resp)

let test_protocol_version_gate () =
  let j = Protocol.encode_request { Protocol.id = 1; kind = Protocol.Ping } in
  let j' =
    match j with
    | Cas_diag.Json.Obj kvs ->
      Cas_diag.Json.Obj
        (List.map
           (function
             | "v", _ -> ("v", Cas_diag.Json.Str "0.0.1") | kv -> kv)
           kvs)
    | _ -> assert false
  in
  (match Protocol.decode_request j' with
  | Error e -> check tbool "names both versions" true (contains ~sub:"0.0.1" e)
  | Ok _ -> Alcotest.fail "version mismatch accepted");
  check tint "id still recoverable for the error response" 1
    (Protocol.peek_id j')

let test_request_key () =
  let key src =
    Protocol.request_key
      { Protocol.id = Random.int 1000; kind = Protocol.Certify { source = src } }
  in
  check tstr "same source, same key (ids differ)" (key "s") (key "s");
  check tbool "different source, different key" true (key "s1" <> key "s2");
  let certify =
    Protocol.request_key
      { Protocol.id = 0; kind = Protocol.Certify { source = "s" } }
  and compile =
    Protocol.request_key
      { Protocol.id = 0; kind = Protocol.Compile { source = "s" } }
  in
  check tbool "kind is part of the key" true (certify <> compile)

(* ------------------------------------------------------------------ *)
(* Pool.Persistent: drain semantics under a multi-domain hammer        *)
(* ------------------------------------------------------------------ *)

let test_pool_hammer_drain () =
  let open Cas_base.Pool.Persistent in
  let p = create ~jobs:4 () in
  let hits = Atomic.make 0 in
  let n = 500 in
  let submitters =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to n / 4 do
              match submit p (fun () -> Atomic.incr hits) with
              | Ok () -> ()
              | Error `Draining -> Alcotest.fail "refused before drain"
            done)
          ())
  in
  List.iter Thread.join submitters;
  drain p;
  check tint "every job ran exactly once" n (Atomic.get hits);
  check tint "executed counter agrees" n (executed p);
  check tint "no failures" 0 (failed p);
  check tbool "post-drain submission refused" true
    (submit p (fun () -> ()) = Error `Draining);
  (* idempotent *)
  drain p;
  check tint "drain is idempotent" n (Atomic.get hits)

let test_pool_job_exception_survival () =
  let open Cas_base.Pool.Persistent in
  let p = create ~jobs:2 () in
  let ok = Atomic.make 0 in
  for i = 1 to 100 do
    match
      submit p (fun () ->
          if i mod 3 = 0 then failwith "boom" else Atomic.incr ok)
    with
    | Ok () -> ()
    | Error `Draining -> Alcotest.fail "refused while running"
  done;
  drain p;
  check tint "survivors all ran" 67 (Atomic.get ok);
  check tint "failures counted, not fatal" 33 (failed p)

(* ------------------------------------------------------------------ *)
(* Scheduler: dedup, admission, drain                                  *)
(* ------------------------------------------------------------------ *)

(* Block the worker inside the leader's job until we've observed the
   coalesced submissions — the dedup assertion is deterministic, not a
   race we hope to win. *)
let test_scheduler_dedup () =
  let s = Scheduler.create ~jobs:2 ~queue_cap:8 () in
  let gate = Mutex.create () in
  let executions = Atomic.make 0 in
  let results = Atomic.make 0 in
  Mutex.lock gate;
  let submit_one () =
    Scheduler.submit s ~key:"K"
      ~run:(fun () ->
        Atomic.incr executions;
        Mutex.lock gate;
        Mutex.unlock gate;
        Ok "null")
      ~callback:(fun r ->
        if r = Ok "null" then Atomic.incr results)
  in
  let n = 8 in
  check tbool "first is a leader" true (submit_one () = Scheduler.Admitted);
  (* wait until the leader is actually inside [run] *)
  while Atomic.get executions = 0 do
    Thread.yield ()
  done;
  for _ = 2 to n do
    check tbool "identical in-flight request coalesces" true
      (submit_one () = Scheduler.Coalesced)
  done;
  Mutex.unlock gate;
  Scheduler.drain s;
  check tint "one execution" 1 (Atomic.get executions);
  check tint "N responses" n (Atomic.get results);
  check tint "coalesce count is N-1" (n - 1) (Scheduler.coalesced_total s);
  check tint "executed count is 1" 1 (Scheduler.executed_total s)

let test_scheduler_admission () =
  let s = Scheduler.create ~jobs:1 ~queue_cap:1 () in
  let gate = Mutex.create () in
  let started = Atomic.make 0 in
  Mutex.lock gate;
  let blocked key =
    Scheduler.submit s ~key
      ~run:(fun () ->
        Atomic.incr started;
        Mutex.lock gate;
        Mutex.unlock gate;
        Ok "null")
      ~callback:(fun _ -> ())
  in
  check tbool "leader admitted" true (blocked "A" = Scheduler.Admitted);
  while Atomic.get started = 0 do
    Thread.yield ()
  done;
  check tbool "distinct job over the cap rejected" true
    (blocked "B" = Scheduler.Overloaded);
  check tbool "identical job still coalesces at the cap" true
    (blocked "A" = Scheduler.Coalesced);
  check tint "rejection counted" 1 (Scheduler.overloaded_total s);
  Mutex.unlock gate;
  Scheduler.drain s;
  check tbool "post-drain submission refused" true
    (blocked "C" = Scheduler.Draining)

(* the response memo: a completed key answers later identical requests
   synchronously (callback runs inside [submit]), without re-executing —
   and error results are never memoized *)
let test_scheduler_memo () =
  let s = Scheduler.create ~jobs:1 ~queue_cap:4 () in
  let runs = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let submit_ok () =
    Scheduler.submit s ~key:"K"
      ~run:(fun () ->
        Atomic.incr runs;
        Ok "v")
      ~callback:(fun r ->
        if r = Ok "v" then Atomic.incr answered)
  in
  check tbool "first is a leader" true (submit_ok () = Scheduler.Admitted);
  while Atomic.get answered < 1 do
    Thread.yield ()
  done;
  check tbool "completed key served from the memo" true
    (submit_ok () = Scheduler.Hit);
  check tint "memo callback ran synchronously" 2 (Atomic.get answered);
  check tint "no second execution" 1 (Atomic.get runs);
  check tint "memo hit counted" 1 (Scheduler.memo_hits_total s);
  check tint "executed count unchanged" 1 (Scheduler.executed_total s);
  check tint "one entry held" 1 (Scheduler.memo_entries s);
  (* errors may be transient: they are not memoized *)
  let failures = Atomic.make 0 in
  let err_answered = Atomic.make 0 in
  let submit_err () =
    Scheduler.submit s ~key:"E"
      ~run:(fun () ->
        Atomic.incr failures;
        Error "boom")
      ~callback:(fun _ -> Atomic.incr err_answered)
  in
  check tbool "error leader admitted" true (submit_err () = Scheduler.Admitted);
  while Atomic.get err_answered < 1 do
    Thread.yield ()
  done;
  check tbool "failed key re-executes, no memo" true
    (submit_err () = Scheduler.Admitted);
  Scheduler.drain s;
  check tint "error job ran twice" 2 (Atomic.get failures)

let test_scheduler_drain_completes_queued () =
  let s = Scheduler.create ~jobs:1 ~queue_cap:16 () in
  let done_ = Atomic.make 0 in
  for i = 1 to 8 do
    match
      Scheduler.submit s
        ~key:(string_of_int i)
        ~run:(fun () ->
          Unix.sleepf 0.01;
          Ok "null")
        ~callback:(fun _ -> Atomic.incr done_)
    with
    | Scheduler.Admitted -> ()
    | _ -> Alcotest.fail "submission refused"
  done;
  Scheduler.drain s;
  check tint "every admitted job answered before drain returned" 8
    (Atomic.get done_)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_consistency () =
  let m = Metrics.create () in
  Metrics.record_request m ~kind:"certify";
  Metrics.record_request m ~kind:"certify";
  Metrics.record_request m ~kind:"ping";
  let ms = 1_000_000 in
  for _ = 1 to 50 do
    Metrics.record_result m Metrics.Ok_ ~latency_ns:ms
  done;
  for _ = 1 to 50 do
    Metrics.record_result m Metrics.Ok_ ~latency_ns:(100 * ms)
  done;
  Metrics.record_result m Metrics.Error_ ~latency_ns:(2 * ms);
  Metrics.record_result m Metrics.Overloaded ~latency_ns:ms;
  let s = Metrics.snapshot m in
  check tint "total = ok + error + overloaded + draining" 102
    s.Metrics.requests_total;
  check tint "ok" 100 s.Metrics.requests_ok;
  check tint "error" 1 s.Metrics.requests_error;
  check tint "overloaded" 1 s.Metrics.requests_overloaded;
  check tbool "kind counters kept" true
    (s.Metrics.by_kind = [ ("certify", 2); ("ping", 1) ]);
  check tbool "quantiles are monotone" true
    (s.Metrics.p50_ns <= s.Metrics.p95_ns
    && s.Metrics.p95_ns <= s.Metrics.p99_ns
    && s.Metrics.p99_ns <= s.Metrics.max_ns);
  check tbool "p50 in the 1ms bucket (≤2x overestimate)" true
    (s.Metrics.p50_ns >= ms && s.Metrics.p50_ns <= 3 * ms);
  check tbool "p95 reaches the 100ms population" true
    (s.Metrics.p95_ns >= 50 * ms);
  check tint "max exact" (100 * ms) s.Metrics.max_ns

(* ------------------------------------------------------------------ *)
(* End-to-end: in-process daemon                                       *)
(* ------------------------------------------------------------------ *)

let start_daemon cfg =
  match Daemon.create cfg with
  | Error e -> Alcotest.failf "daemon: %s" e
  | Ok d ->
    let final = ref Cas_diag.Json.Null in
    let th = Thread.create (fun () -> final := Daemon.run d) () in
    (match Client.wait_ready ~socket:cfg.Daemon.socket () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "daemon never ready: %s" e);
    (d, th, final)

let certify_req src = Protocol.Certify { source = src }

let request_ok ~socket kind =
  match Client.with_connection ~socket (fun c -> Client.request c kind) with
  | Ok (Ok r) -> r
  | Ok (Error e) | Error e -> Alcotest.failf "request failed: %s" e

let int_at path j =
  let rec go j = function
    | [] -> Cas_diag.Json.to_int_exn j
    | k :: rest -> go (Cas_diag.Json.member k j) rest
  in
  go j path

(* N identical certify requests against a daemon whose jobs sleep long
   enough that 1..N-1 arrive while the leader runs: exactly one
   execution, N identical responses, coalesce count N-1 — and the
   verdict text byte-identical to the one-shot CLI rendering. *)
let test_daemon_dedup_and_identical_text () =
  let socket = socket_path () in
  let cfg = { Daemon.socket; jobs = 2; queue_cap = 32; delay = 0.4 } in
  let _d, th, _final = start_daemon cfg in
  let src = Corpus.counter_src in
  (* warm the (process-global, daemon-shared) certificate cache first so
     the daemon's rendering and the local expected rendering agree on
     the "(cached)" markers *)
  ignore (Cascompcert.Framework.check_passes (Cas_langs.Parse.clight src));
  let n = 8 in
  let responses = Array.make n None in
  let fire i = responses.(i) <- Some (request_ok ~socket (certify_req src)) in
  let leader = Thread.create fire 0 in
  Unix.sleepf 0.15 (* leader is inside its 0.4s job; the rest coalesce *);
  let rest = List.init (n - 1) (fun i -> Thread.create fire (i + 1)) in
  Thread.join leader;
  List.iter Thread.join rest;
  let texts =
    Array.to_list responses
    |> List.map (function
         | Some { Protocol.status = Protocol.Sok; payload; _ } ->
           Protocol.payload_text payload
         | Some _ -> Alcotest.fail "non-ok response"
         | None -> Alcotest.fail "missing response")
  in
  let expected =
    Fmt.str "%a"
      (Cas_cmd.pp_certify ~indent:"")
      (Cas_cmd.certify (Cas_langs.Parse.clight src))
  in
  List.iteri
    (fun i t -> check tstr (Fmt.str "response %d text = CLI text" i) expected t)
    texts;
  let m = (request_ok ~socket Protocol.Metrics).Protocol.payload in
  check tint "one execution" 1 (int_at [ "scheduler"; "executed" ] m);
  check tint "coalesced N-1" (n - 1) (int_at [ "scheduler"; "coalesced" ] m);
  check tint "all ok (certifies + ready pings)" 0
    (int_at [ "requests"; "error" ] m);
  (* the job is done: one more identical request is a memo hit — same
     bytes, no execution, and it skips the daemon's 0.4s job delay *)
  let r9 = request_ok ~socket (certify_req src) in
  check tstr "memo-served response text = CLI text" expected
    (Protocol.payload_text r9.Protocol.payload);
  let m2 = (request_ok ~socket Protocol.Metrics).Protocol.payload in
  check tint "memo hit recorded" 1 (int_at [ "scheduler"; "memo_hits" ] m2);
  check tint "still one execution" 1 (int_at [ "scheduler"; "executed" ] m2);
  ignore (request_ok ~socket Protocol.Shutdown);
  Thread.join th

(* A tso request answers with the trace set Lemma 16 was decided on and
   [Objsim]'s verdict: one enumeration, whose result the text shows. *)
let test_daemon_tso_text () =
  let source = Corpus.racy_counter_src and entries = [ "inc"; "inc" ] in
  let text =
    match
      Daemon.exec Daemon.default_config (Protocol.Tso { source; entries })
    with
    | Error e -> Alcotest.failf "tso request failed: %s" e
    | Ok payload -> (
      match Cas_diag.Json.parse payload with
      | Ok j -> Protocol.payload_text j
      | Error e -> Alcotest.failf "tso payload: %s" e)
  in
  let g =
    Cas_tso.Objsim.check_drf_guarantee
      ~clients:[ Cas_compiler.Driver.compile (Cas_langs.Parse.clight source) ]
      ~pi:Cas_tso.Locks.pi_lock ~gamma:(Cas_langs.Cimp.gamma_lock ()) ~entries
      ()
  in
  check tstr "tso text = Objsim's traces and verdict"
    (Fmt.str "%a" (Cas_cmd.pp_tso ~engine_line:false) g)
    text

(* Every compute kind answers with the text [casc] prints for the same
   input ([Cas_cmd]'s renderer, less the [engine:] line), or with the
   message of the error [casc] reports; the payload's verdict agrees
   with the exit code [casc] gives the same result. *)
let test_daemon_matches_cli () =
  let agree name kind ~pp ~verdict ~ok (cli : (_, Cas_cmd.error) result) =
    let code = Cas_cmd.exit_code ok cli in
    match (Daemon.exec Daemon.default_config kind, cli) with
    | Ok payload, Ok r -> (
      match Cas_diag.Json.parse payload with
      | Error e -> Alcotest.failf "%s: payload: %s" name e
      | Ok j ->
        check tstr (name ^ ": text = CLI text") (Fmt.str "%a" pp r)
          (Protocol.payload_text j);
        let positive =
          match verdict with
          | Some field -> Protocol.payload_bool field j
          | None -> true
        in
        check tint (name ^ ": verdict = CLI exit code") code
          (if positive then 0 else 2))
    | Error msg, Error e ->
      check tstr (name ^ ": error = CLI error") (Cas_cmd.message e) msg;
      check tbool (name ^ ": CLI exit code is nonzero") true (code <> 0)
    | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.failf "%s: daemon and CLI disagree on failing" name
  in
  let parse = Cas_cmd.parse ~origin:"parse error" in
  let program ?with_lock ~entries text =
    Result.map
      (fun client ->
        Cas_cmd.program ?with_lock ~entries (Cas_cmd.Source { text; client }))
      (parse text)
  in
  List.iter
    (fun (name, source, entries, with_lock) ->
      let name k = Fmt.str "%s %s" name k in
      agree (name "compile") (Protocol.Compile { source })
        ~pp:Cas_cmd.pp_compile ~verdict:None ~ok:(fun _ -> true)
        (Result.map
           (Cas_compiler.Driver.compile_artifacts ~cache:true)
           (parse source));
      (* certify first: the daemon's verdicts then come from the warm
         cache, as the CLI's do, with the same "(cached)" markers *)
      ignore (Result.map Cas_cmd.certify (parse source));
      agree (name "certify") (Protocol.Certify { source })
        ~pp:(Cas_cmd.pp_certify ~indent:"")
        ~verdict:(Some "sim_ok")
        ~ok:(fun c -> c.Cas_cmd.sim_ok)
        (Result.map Cas_cmd.certify (parse source));
      agree (name "drf")
        (Protocol.Drf { source; entries; with_lock })
        ~pp:(Cas_cmd.pp_drf ~engine_line:false)
        ~verdict:(Some "drf")
        ~ok:(fun r -> r.Cas_conc.Race.drf)
        (Result.map
           (fun d -> d.Cas_cmd.report)
           (Result.bind (program ~with_lock ~entries source) Cas_cmd.drf));
      agree (name "tso") (Protocol.Tso { source; entries })
        ~pp:(Cas_cmd.pp_tso ~engine_line:false)
        ~verdict:(Some "holds")
        ~ok:(fun g -> g.Cas_tso.Objsim.holds)
        (Result.map
           (fun t -> t.Cas_cmd.guarantee)
           (Result.bind (program ~entries source) Cas_cmd.tso)))
    [
      ("racy", Corpus.racy_counter_src, [ "inc"; "inc" ], false);
      ("fib", Corpus.fib_src, [], false);
      ("cross-f", Corpus.cross_module_f_src, [ "f" ], false);
      ("no-entry", Corpus.racy_counter_src, [ "nosuch" ], false);
      ("unparsable", "int x = 0; void f() { x = ; }", [], false);
    ];
  let obj name source =
    match Cas_link.Objfile.build ~name ~source () with
    | Ok o -> Cas_link.Objfile.to_string o
    | Error e -> Alcotest.failf "build %s: %s" name e
  in
  let f = obj "f" Corpus.cross_module_f_src
  and g = obj "g" Corpus.cross_module_g_src in
  List.iter
    (fun (name, objects, certify) ->
      let cli () = Cas_cmd.link ~certify ~entries:[ "f" ] objects in
      ignore (cli ());
      agree name
        (Protocol.Link { objects; entries = [ "f" ]; certify })
        ~pp:Cas_cmd.pp_link ~verdict:None
        ~ok:(fun _ -> true)
        (cli ()))
    [
      ("link --certify", [ f; g ], true);
      ("link", [ f; g ], false);
      ("link, g missing", [ f ], false);
    ]

let test_daemon_overload_and_drain () =
  let socket = socket_path () in
  let cfg = { Daemon.socket; jobs = 1; queue_cap = 1; delay = 0.4 } in
  let _d, th, final = start_daemon cfg in
  let slow = ref None in
  let slow_th =
    Thread.create
      (fun () -> slow := Some (request_ok ~socket (certify_req Corpus.fib_src)))
      ()
  in
  Unix.sleepf 0.15;
  (* distinct second job: over the cap → overloaded, immediately *)
  let r2 = request_ok ~socket (certify_req Corpus.counter_src) in
  check tbool "distinct job rejected as overloaded" true
    (r2.Protocol.status = Protocol.Soverloaded);
  (* identical job: coalesces even at the cap *)
  let twin = ref None in
  let twin_th =
    Thread.create
      (fun () -> twin := Some (request_ok ~socket (certify_req Corpus.fib_src)))
      ()
  in
  Unix.sleepf 0.1;
  (* shutdown mid-flight: the in-flight job must still answer *)
  ignore (request_ok ~socket Protocol.Shutdown);
  Thread.join slow_th;
  Thread.join twin_th;
  Thread.join th;
  (match (!slow, !twin) with
  | Some a, Some b ->
    check tbool "in-flight job answered across the drain" true
      (a.Protocol.status = Protocol.Sok && b.Protocol.status = Protocol.Sok);
    check tstr "leader and coalesced twin got the same text"
      (Protocol.payload_text a.Protocol.payload)
      (Protocol.payload_text b.Protocol.payload)
  | _ -> Alcotest.fail "missing responses");
  (* final metrics document from [Daemon.run]'s return *)
  check tint "final stats: one overload" 1
    (int_at [ "requests"; "overloaded" ] !final);
  check tint "final stats: coalesce recorded" 1
    (int_at [ "scheduler"; "coalesced" ] !final);
  check tbool "socket removed on exit" true (not (Sys.file_exists socket))

(* The daemon replaces a stale socket at its path, and refuses any other
   file there, leaving it as it was. *)
let test_daemon_keeps_non_socket () =
  let path = socket_path () in
  Out_channel.with_open_bin path (fun oc -> output_string oc "precious\n");
  let cfg = { Daemon.default_config with Daemon.socket = path } in
  (match Daemon.create cfg with
  | Ok _ -> Alcotest.fail "daemon listened on a regular file"
  | Error e ->
    check tbool "error names the path" true (contains ~sub:path e));
  check tstr "regular file keeps its bytes" "precious\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path;
  (* a socket no daemon listens on any more *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  let _d, th, _final = start_daemon cfg in
  ignore (request_ok ~socket:path Protocol.Shutdown);
  Thread.join th

(* A Zipf-distributed fleet against a warm daemon. The daemon must serve
   every request, at no less than 5x the rate of one [casc sim] process
   per request: what the daemon replaces, each spawn paying process
   start-up and a cacheless certification. *)

(* one certify source per rank: a call chain across several functions,
   so certification, not the socket round trip, dominates a cold
   request *)
let fleet_source rank =
  Fmt.str
    {|
      int x%d = %d;
      int scale%d(int n) { int t; t = n * %d; return t; }
      int twice%d(int n) {
        int s;
        int u;
        s = scale%d(n);
        u = scale%d(n);
        return s + u;
      }
      int probe%d(int n) { int u; u = twice%d(n); return u + x%d; }
      void m%d() {
        int a;
        int b;
        a = probe%d(%d);
        b = twice%d(a);
        x%d = b;
        print(a + b);
      }
|}
    rank rank rank (rank + 2) rank rank rank rank rank rank rank rank
    (rank + 1) rank rank

(* [clients] connections, each sending [requests] requests in turn;
   returns the number answered ok and the wall time. The client threads
   are spread over up to four domains: real clients are separate
   processes, so their encoding and decoding must not time-share the
   daemon's domain. *)
let run_fleet ~socket ~clients ~requests ~kind_of =
  let ok = Atomic.make 0 in
  let client i () =
    match Client.connect ~socket with
    | Error _ -> ()
    | Ok c ->
      for j = 1 to requests do
        match Client.request c (kind_of ~client:i ~request:j) with
        | Ok { Protocol.status = Protocol.Sok; _ } -> Atomic.incr ok
        | Ok _ | Error _ -> ()
      done;
      Client.close c
  in
  let run_threads ids =
    List.iter Thread.join
      (List.map (fun i -> Thread.create (client i) ()) ids)
  in
  let ids = List.init clients Fun.id in
  let domains =
    max 1 (min 4 (min clients (Domain.recommended_domain_count () - 1)))
  in
  let t0 = Unix.gettimeofday () in
  if domains = 1 then run_threads ids
  else
    List.iter Domain.join
      (List.init domains (fun d ->
           Domain.spawn (fun () ->
               run_threads (List.filter (fun i -> i mod domains = d) ids))));
  (Atomic.get ok, Unix.gettimeofday () -. t0)

let test_daemon_throughput () =
  Cas_compiler.Cache.set_default_dir None;
  Cas_compiler.Cache.clear_memory ();
  let modules = 24 in
  let cdf = Cas_base.Rng.zipf_cdf ~n:modules ~s:1.1 in
  let certify rank = certify_req (fleet_source rank) in
  (* one process per request, timed before the daemon exists; the
     fastest of 12 spawns sets the rate *)
  let casc =
    (* test/test_serve.exe and bin/casc.exe are siblings in the build *)
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "casc.exe")
  in
  let src = Filename.temp_file "cascd-fleet" ".c" in
  let rng = Cas_base.Rng.make ~seed:42 in
  let spawn () =
    Out_channel.with_open_bin src (fun oc ->
        output_string oc (fleet_source (Cas_base.Rng.sample cdf rng)));
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let t0 = Unix.gettimeofday () in
    let pid = Unix.create_process casc [| casc; "sim"; src |] null null null in
    let _, status = Unix.waitpid [] pid in
    let dt = Unix.gettimeofday () -. t0 in
    Unix.close null;
    check tbool "casc sim exits 0" true (status = Unix.WEXITED 0);
    dt
  in
  let fastest =
    List.fold_left min infinity (List.init 12 (fun _ -> spawn ()))
  in
  Sys.remove src;
  let process_rps = 1. /. fastest in
  let socket = socket_path () in
  let cfg = { Daemon.socket; jobs = 4; queue_cap = 256; delay = 0. } in
  let _d, th, _final = start_daemon cfg in
  (* warm: every module certified once, the steady state a long-lived
     daemon serves *)
  for rank = 0 to modules - 1 do
    check tbool
      (Fmt.str "warm-up certify %d" rank)
      true
      ((request_ok ~socket (certify rank)).Protocol.status = Protocol.Sok)
  done;
  let clients = 120 and requests = 20 in
  let ok, wall =
    run_fleet ~socket ~clients ~requests ~kind_of:(fun ~client ~request ->
        certify
          (Cas_base.Rng.sample cdf
             (Cas_base.Rng.make ~seed:((client * 1009) + request))))
  in
  ignore (request_ok ~socket Protocol.Shutdown);
  Thread.join th;
  check tint "every fleet request answered ok" (clients * requests) ok;
  let daemon_rps = float_of_int ok /. wall in
  check tbool
    (Fmt.str "daemon %.0f req/s >= 5x one process per request (%.0f req/s)"
       daemon_rps process_rps)
    true
    (daemon_rps >= 5. *. process_rps)

let test_daemon_rejects_garbage () =
  let socket = socket_path () in
  let cfg = { Daemon.socket; jobs = 1; queue_cap = 4; delay = 0. } in
  let _d, th, _final = start_daemon cfg in
  (* raw malformed frame: served a structured error, connection survives *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let payload = Bytes.of_string "][" in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
  ignore (Unix.write fd header 0 4);
  ignore (Unix.write fd payload 0 (Bytes.length payload));
  (match Frame.read fd with
  | Ok j -> (
    match Protocol.decode_response j with
    | Ok r ->
      check tbool "structured error, id -1" true
        (r.Protocol.status = Protocol.Serror && r.Protocol.rid = -1)
    | Error e -> Alcotest.failf "undecodable error response: %s" e)
  | Error _ -> Alcotest.fail "no response to malformed frame");
  (* same connection still serves *)
  (match Frame.write fd
           (Protocol.encode_request { Protocol.id = 9; kind = Protocol.Ping })
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write after malformed frame");
  (match Frame.read fd with
  | Ok j ->
    check tbool "ping after garbage still answered" true
      (match Protocol.decode_response j with
      | Ok r -> r.Protocol.rid = 9 && r.Protocol.status = Protocol.Sok
      | Error _ -> false)
  | Error _ -> Alcotest.fail "connection dead after malformed frame");
  (* well-formed JSON that is not a valid request: structured error with
     whatever id is recoverable, not a crash *)
  (match Frame.write fd Cas_diag.Json.Null with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write of non-request frame");
  (match Frame.read fd with
  | Ok j ->
    check tbool "non-request document answered with an error" true
      (match Protocol.decode_response j with
      | Ok r -> r.Protocol.status = Protocol.Serror && r.Protocol.rid = -1
      | Error _ -> false)
  | Error _ -> Alcotest.fail "connection dead after non-request document");
  Unix.close fd;
  let m = (request_ok ~socket Protocol.Metrics).Protocol.payload in
  check tbool "bad frame counted" true
    (int_at [ "requests"; "bad_frames" ] m >= 1);
  ignore (request_ok ~socket Protocol.Shutdown);
  Thread.join th

let () =
  Alcotest.run "serve"
    [
      ( "cross-process",
        [
          Alcotest.test_case "two processes, one disk cache" `Quick
            test_cross_process_cache;
        ] );
      ( "frame",
        [
          Alcotest.test_case "round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized rejected unread" `Quick
            test_frame_oversized;
          Alcotest.test_case "bad length" `Quick test_frame_bad_length;
          Alcotest.test_case "malformed payload" `Quick test_frame_malformed;
          Alcotest.test_case "closed and stopped" `Quick
            test_frame_closed_and_stopped;
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request/response round trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "version gate" `Quick test_protocol_version_gate;
          Alcotest.test_case "request keys" `Quick test_request_key;
        ] );
      ( "pool",
        [
          Alcotest.test_case "hammer + drain" `Quick test_pool_hammer_drain;
          Alcotest.test_case "job exceptions survive" `Quick
            test_pool_job_exception_survival;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "in-flight dedup" `Quick test_scheduler_dedup;
          Alcotest.test_case "admission control" `Quick
            test_scheduler_admission;
          Alcotest.test_case "response memo" `Quick test_scheduler_memo;
          Alcotest.test_case "drain completes queued work" `Quick
            test_scheduler_drain_completes_queued;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "consistency" `Quick test_metrics_consistency;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "dedup + identical text" `Quick
            test_daemon_dedup_and_identical_text;
          Alcotest.test_case "tso text is Objsim's report" `Quick
            test_daemon_tso_text;
          Alcotest.test_case "overload + graceful drain" `Quick
            test_daemon_overload_and_drain;
          Alcotest.test_case "garbage rejected structurally" `Quick
            test_daemon_rejects_garbage;
          Alcotest.test_case "every kind answers as the CLI" `Quick
            test_daemon_matches_cli;
          Alcotest.test_case "stale socket replaced, other files kept" `Quick
            test_daemon_keeps_non_socket;
          Alcotest.test_case "warm fleet beats a process per request" `Slow
            test_daemon_throughput;
        ] );
    ]
