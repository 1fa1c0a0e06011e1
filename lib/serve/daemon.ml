(** cascd — the certification daemon behind [casc serve].

    One process, three layers of concurrency:

    - the *accept loop* (main thread) multiplexes the listening socket
      with a 0.2 s poll of the stop flag, spawning one handler thread
      per connection;
    - *connection handlers* (systhreads) read frames, decode requests,
      and answer protocol-level traffic (ping, metrics, malformed input)
      inline; compute requests go to the [Scheduler];
    - *worker domains* ([Cas_base.Pool.Persistent], via the scheduler)
      run the actual compiler/checker jobs — warm process-global
      memory+disk certificate caches included — and fan each result out
      to every connection that asked for it (in-flight dedup).

    Responses are written under a per-connection mutex (the leader's
    worker writes for every coalesced follower), so frames never
    interleave. Shutdown — SIGTERM, a [shutdown] request, or [stop] —
    is graceful: stop accepting, refuse new work with [draining],
    finish every admitted job, flush its responses, then exit. Verdict
    texts are rendered with the same pretty-printers the one-shot
    [casc] commands use, so a daemon answer is byte-identical to the
    CLI's stdout for the same input, less the [engine:] line of [drf]
    and [tso]: an answer is a function of the request (the response
    memo and coalescing rely on it), and that line carries wall time. *)

open Cas_base
open Cas_langs
open Cas_conc
module Json = Cas_diag.Json

type config = {
  socket : string;  (** Unix-domain socket path *)
  jobs : int;  (** worker domains *)
  queue_cap : int;  (** max distinct jobs outstanding before [overloaded] *)
  delay : float;  (** artificial seconds added to every job — a test hook
                      ([--delay-ms]) that widens the in-flight window so
                      smoke tests can provoke coalescing deterministically *)
}

let default_config =
  { socket = "casc.sock"; jobs = 2; queue_cap = 64; delay = 0. }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  metrics : Metrics.t;
  stopping : bool Atomic.t;
  conns_live : int Atomic.t;
  conns_total : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Request execution (worker domains)                                  *)
(* ------------------------------------------------------------------ *)

let parse_source (src : string) : (Clight.program, string) result =
  try Ok (Parse.clight src) with
  | Lexer.Error (msg, pos) ->
    Error (Fmt.str "parse error: %s at %a" msg Lexer.pp_pos pos)

let default_entries = function [] -> [ "main" ] | es -> es

(* The same program assembly [casc drf]/[casc run] perform. *)
let build_prog client ~with_lock ~entries =
  let mods =
    if with_lock then
      [ Lang.Mod (Clight.lang, client); Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) ]
    else [ Lang.Mod (Clight.lang, client) ]
  in
  Lang.prog mods entries

(* payloads are rendered to JSON text right here, on the worker domain
   that produced them — encode once, fan the bytes out to every waiter *)
let ok_payload fields = Json.to_string (Json.Obj fields)
let err_payload msg = Json.to_string (Protocol.error_payload msg)

let exec_compile source : Scheduler.result =
  match parse_source source with
  | Error e -> Error e
  | Ok client ->
    let a = Cas_compiler.Driver.compile_artifacts ~cache:true client in
    (* identical to [casc compile FILE] (default IR = asm) *)
    let text =
      Fmt.str "%a@."
        Fmt.(list ~sep:cut Asm.pp_func)
        a.Cas_compiler.Driver.asm.Asm.funcs
    in
    Ok
      (ok_payload
         [
           ("text", Json.Str text);
           ("asm_digest", Json.Str (Cas_compiler.Cache.digest text));
         ])

let exec_certify source : Scheduler.result =
  match parse_source source with
  | Error e -> Error e
  | Ok client ->
    let reports = Cascompcert.Framework.check_passes client in
    (* identical to the [casc sim FILE] report lines *)
    let text =
      String.concat ""
        (List.map
           (fun r -> Fmt.str "%a@." Cascompcert.Framework.pp_pass_sim r)
           reports)
    in
    let sim_ok =
      List.for_all
        (fun r -> Cascompcert.Framework.sim_ok r.Cascompcert.Framework.outcome)
        reports
    in
    let cached =
      List.length
        (List.filter (fun r -> r.Cascompcert.Framework.cached) reports)
    in
    let steps =
      List.fold_left
        (fun acc r -> acc + r.Cascompcert.Framework.checker_steps)
        0 reports
    in
    Ok
      (ok_payload
         [
           ("text", Json.Str text);
           ("sim_ok", Json.Bool sim_ok);
           ("verdicts", Json.Int (List.length reports));
           ("cached", Json.Int cached);
           ("checker_steps", Json.Int steps);
         ])

let exec_link ~objects ~entries ~certify : Scheduler.result =
  let entries = default_entries entries in
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | o :: rest -> (
      match Cas_link.Objfile.of_string o with
      | Error e -> Error (Fmt.str "object %d: %s" (List.length acc + 1) e)
      | Ok obj -> decode (obj :: acc) rest)
  in
  match decode [] objects with
  | Error e -> Error e
  | Ok objs -> (
    match Cas_link.Linker.link ~certify ~entries objs with
    | Error e -> Error (Fmt.str "%a" Cas_link.Linker.pp_error e)
    | Ok o ->
      let img = o.Cas_link.Linker.lk_image in
      (* identical to the certificate-composition report [casc link] prints *)
      let text =
        match o.Cas_link.Linker.lk_compose with
        | None -> ""
        | Some r -> Fmt.str "%a@." Cascompcert.Framework.pp_compose r
      in
      Ok
        (ok_payload
           [
             ("text", Json.Str text);
             ("image", Json.Str (Cas_link.Image.to_string img));
             ("digest", Json.Str img.Cas_link.Image.i_digest);
             ("certified", Json.Bool img.Cas_link.Image.i_certified);
           ]))

let exec_drf ~source ~entries ~with_lock : Scheduler.result =
  let entries = default_entries entries in
  match parse_source source with
  | Error e -> Error e
  | Ok client -> (
    let p = build_prog client ~with_lock ~entries in
    match World.load p ~args:[] with
    | Error e -> Error (Fmt.str "load error: %a" World.pp_load_error e)
    | Ok w ->
      let r = Race.drf ~engine:Engine.Naive w in
      (* the [casc drf FILE] report without its engine line *)
      let text = Fmt.str "%a@." Race.pp_drf_report r in
      Ok
        (ok_payload
           [ ("text", Json.Str text); ("drf", Json.Bool r.Race.drf) ]))

let exec_tso ~source ~entries : Scheduler.result =
  let entries = default_entries entries in
  match parse_source source with
  | Error e -> Error e
  | Ok client -> (
    let asm = Cas_compiler.Driver.compile client in
    match Cas_tso.Tso.load [ asm; Cas_tso.Locks.pi_lock ] entries with
    | Error e -> Error (Fmt.str "load error: %a" World.pp_load_error e)
    | Ok _ ->
      let g =
        Cas_tso.Objsim.check_drf_guarantee ~engine:Engine.Naive
          ~clients:[ asm ] ~pi:Cas_tso.Locks.pi_lock
          ~gamma:(Cimp.gamma_lock ()) ~entries ()
      in
      (* the [casc tso FILE] output (naive engine) without its engine
         line: an answer is a function of the request, and that line
         carries wall time *)
      let text =
        Fmt.str "x86-TSO traces (with the TTAS spin lock):@.%a@."
          Explore.TraceSet.pp g.Cas_tso.Objsim.tso_traces
        ^ Fmt.str "Lemma 16: %a@." Cas_tso.Objsim.pp_guarantee g
      in
      Ok
        (ok_payload
           [
             ("text", Json.Str text);
             ("holds", Json.Bool g.Cas_tso.Objsim.holds);
           ]))

let exec (cfg : config) (k : Protocol.kind) : Scheduler.result =
  if cfg.delay > 0. then Unix.sleepf cfg.delay;
  match k with
  | Protocol.Compile { source } -> exec_compile source
  | Protocol.Certify { source } -> exec_certify source
  | Protocol.Link { objects; entries; certify } ->
    exec_link ~objects ~entries ~certify
  | Protocol.Drf { source; entries; with_lock } ->
    exec_drf ~source ~entries ~with_lock
  | Protocol.Tso { source; entries } -> exec_tso ~source ~entries
  | Protocol.Ping | Protocol.Metrics | Protocol.Shutdown ->
    (* handled inline by the connection handler, never scheduled *)
    Error "internal: control request scheduled"

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let create (cfg : config) : (t, string) result =
  (* a peer hanging up mid-write must be an EPIPE result, not a fatal
     signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX cfg.socket);
    Unix.listen fd 128;
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Fmt.str "cannot listen on %s: %s" cfg.socket (Unix.error_message e))
  | listen_fd ->
    let t =
      {
        cfg;
        listen_fd;
        sched = Scheduler.create ~jobs:cfg.jobs ~queue_cap:cfg.queue_cap ();
        metrics = Metrics.create ();
        stopping = Atomic.make false;
        conns_live = Atomic.make 0;
        conns_total = Atomic.make 0;
      }
    in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set t.stopping true));
    Ok t

(** Begin a graceful shutdown (idempotent, signal-safe). *)
let stop (t : t) : unit = Atomic.set t.stopping true

let metrics_json (t : t) : Json.t =
  Metrics.to_json t.metrics
    ~extra:
      [
        ("scheduler", Scheduler.to_json t.sched);
        ( "connections",
          Json.Obj
            [
              ("live", Json.Int (Atomic.get t.conns_live));
              ("total", Json.Int (Atomic.get t.conns_total));
            ] );
      ]

(* One connection: read frames until the peer hangs up or a drain
   begins, answer control requests inline, schedule compute requests.
   Runs on its own systhread; responses for scheduled work are written
   by worker domains under [wlock]. *)
let handle_conn (t : t) (fd : Unix.file_descr) : unit =
  Atomic.incr t.conns_live;
  Atomic.incr t.conns_total;
  let wlock = Mutex.create () in
  let inflight = Atomic.make 0 in
  (* [payload] is JSON text (worker-rendered, or [ok_payload]/
     [err_payload] inline) — the frame is a cheap blit around it *)
  let send ~rid status (payload : string) : unit =
    let frame = Protocol.encode_response_raw ~rid ~status ~payload in
    Mutex.lock wlock;
    let r = Frame.write_string fd frame in
    Mutex.unlock wlock;
    (* a vanished peer is not an error: the job's result still warmed
       the caches, other waiters still got theirs *)
    ignore (r : (unit, Frame.error) result)
  in
  let finish ~t0 ~rid status (payload : string) =
    let latency_ns =
      int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
    in
    let mstatus =
      match status with
      | Protocol.Sok -> Metrics.Ok_
      | Protocol.Serror -> Metrics.Error_
      | Protocol.Soverloaded -> Metrics.Overloaded
      | Protocol.Sdraining -> Metrics.Draining
    in
    send ~rid status payload;
    Metrics.record_result t.metrics mstatus ~latency_ns
  in
  let handle (j : Json.t) : unit =
    let t0 = Unix.gettimeofday () in
    match Protocol.decode_request j with
    | Error msg ->
      Metrics.record_request t.metrics ~kind:"invalid";
      finish ~t0 ~rid:(Protocol.peek_id j) Protocol.Serror (err_payload msg)
    | Ok req -> (
      let rid = req.Protocol.id in
      Metrics.record_request t.metrics ~kind:(Protocol.kind_name req.kind);
      match req.Protocol.kind with
      | Protocol.Ping ->
        finish ~t0 ~rid Protocol.Sok (ok_payload [ ("text", Json.Str "pong") ])
      | Protocol.Metrics ->
        finish ~t0 ~rid Protocol.Sok (Json.to_string (metrics_json t))
      | Protocol.Shutdown ->
        (* acknowledge first: the drain must not race the response *)
        finish ~t0 ~rid Protocol.Sok
          (ok_payload [ ("text", Json.Str "draining") ]);
        Atomic.set t.stopping true
      | kind -> (
        let key = Protocol.request_key req in
        Atomic.incr inflight;
        let callback (r : Scheduler.result) =
          (match r with
          | Ok payload -> finish ~t0 ~rid Protocol.Sok payload
          | Error msg -> finish ~t0 ~rid Protocol.Serror (err_payload msg));
          Atomic.decr inflight
        in
        match
          Scheduler.submit t.sched ~key
            ~run:(fun () -> exec t.cfg kind)
            ~callback
        with
        | Scheduler.Hit (* callback already ran, synchronously *)
        | Scheduler.Admitted | Scheduler.Coalesced ->
          ()
        | Scheduler.Overloaded ->
          Atomic.decr inflight;
          finish ~t0 ~rid Protocol.Soverloaded
            (err_payload "server overloaded: queue full")
        | Scheduler.Draining ->
          Atomic.decr inflight;
          finish ~t0 ~rid Protocol.Sdraining (err_payload "server draining")))
  in
  let should_stop () = Atomic.get t.stopping in
  let rec loop () =
    match Frame.read ~should_stop fd with
    | Error (Frame.Closed | Frame.Stopped) -> ()
    | Error (Frame.Malformed _ as e) ->
      (* the frame itself was sound (payload fully consumed), so the
         stream is still in sync: answer and keep serving *)
      Metrics.record_bad_frame t.metrics;
      send ~rid:(-1) Protocol.Serror
        (err_payload (Fmt.str "%a" Frame.pp_error e));
      loop ()
    | Error ((Frame.Bad_length _ | Frame.Oversized _) as e) ->
      (* framing is lost (payload bytes unread): answer, then hang up *)
      Metrics.record_bad_frame t.metrics;
      send ~rid:(-1) Protocol.Serror
        (err_payload (Fmt.str "%a" Frame.pp_error e))
    | Ok j ->
      handle j;
      loop ()
  in
  loop ();
  (* every scheduled job for this connection still owes a response
     frame; the fd must outlive them *)
  while Atomic.get inflight > 0 do
    Thread.yield ();
    Unix.sleepf 0.005
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Atomic.decr t.conns_live

(** Serve until [stop] (or SIGTERM, or a [shutdown] request), then drain
    and clean up. Returns the final metrics document. *)
let run (t : t) : Json.t =
  let threads = ref [] in
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ -> threads := Thread.create (handle_conn t) fd :: !threads
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* graceful: admitted jobs finish and their responses flush before
     the handlers (waiting on their inflight counters) let go *)
  Scheduler.drain t.sched;
  List.iter Thread.join !threads;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ());
  metrics_json t
