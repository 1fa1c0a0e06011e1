(** The pool workloads: a seeded list of inputs ("pool") and one op
    per input, run over and over by [Runner].

    Every op calls the layers' public entry points. Untraced, it calls
    the function a user reaches ([Objfile.build], [Race.drf],
    [Objsim.check_drf_guarantee]) and records the work counters those
    return. Traced, it makes the same calls one layer at a time, so each
    gets its own span and the counters only a layer exposes; the
    counters both paths record must agree, which the test suite checks. *)

open Cas_base
open Cas_langs
open Cas_conc
module Gen = Cas_fuzz.Gen

type outcome = Decided | Undecided | Failed of string

type op = {
  label : string;
  prepare : unit -> unit;  (** runs before each execution, untimed *)
  run : Meter.t -> outcome;
}

let now = Unix.gettimeofday
let kib s = float_of_int (String.length s) /. 1024.

(* ------------------------------------------------------------------ *)
(* Seeded, stratified inputs                                           *)
(* ------------------------------------------------------------------ *)

(** [count] generated Clight programs. Program [i] must have
    [shape i = (threads, with_lock)]: candidates are drawn from the
    fuzzer's generator, one split of the seed's master stream each, and
    the ones of another shape are skipped. Fixing the shape sequence
    keeps every seed's pool the same mix of thread counts and lock use,
    so pools of different seeds cost about the same and a percentile
    never sits on the border between two shapes. Each program is parsed
    once here, so a malformed input fails set-up rather than an op. *)
let generate ~seed ~size ~count ~(shape : int -> int * bool) :
    Corpus.program array =
  let master = Rng.make ~seed in
  Array.init count (fun i ->
      let threads, lock = shape i in
      let rec draw () =
        let g = Gen.clight (Rng.split master) ~size in
        if List.length g.g_entries = threads && g.g_with_lock = lock then g
        else draw ()
      in
      let g = draw () in
      ignore (Parse.clight g.g_source);
      {
        Corpus.label = Printf.sprintf "gen-%04d" i;
        sources = [ g.g_source ];
        entries = g.g_entries;
        with_lock = g.g_with_lock;
      })

(** Golden keys of a program's DRF answer and of its Lemma 16 answer
    against one lock implementation. *)
let drf_key (p : Corpus.program) =
  Golden.key ~kind:"drf"
    (p.sources @ p.entries @ [ string_of_bool p.with_lock ])

let tso_key (p : Corpus.program) ~pi =
  Golden.key ~kind:"tso" ((pi :: p.sources) @ p.entries)

let show_drf b = if b then "DRF" else "racy"
let show_holds b = if b then "holds" else "FAILS"

(** Compare a verdict with its known answer; only decided verdicts are
    compared. *)
let check ~show ~expect ~decided answer =
  if not decided then Undecided
  else
    match expect with
    | Some b when b <> answer ->
      Failed (Printf.sprintf "got %s, expected %s" (show answer) (show b))
    | _ -> Decided

let worst a b =
  match (a, b) with
  | (Failed _ as f), _ | _, (Failed _ as f) -> f
  | Undecided, _ | _, Undecided -> Undecided
  | Decided, Decided -> Decided

(* ------------------------------------------------------------------ *)
(* Parsing and loading                                                 *)
(* ------------------------------------------------------------------ *)

let parse m src =
  Meter.count m "parse.kb" (kib src);
  Meter.span m "parse" (fun () -> Parse.clight src)

let load m (p : Corpus.program) =
  let mods = List.map (fun s -> Lang.Mod (Clight.lang, parse m s)) p.sources in
  let lock = Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) in
  let mods = if p.with_lock then mods @ [ lock ] else mods in
  Meter.span m "load" (fun () -> World.load (Lang.prog mods p.entries) ~args:[])

(* ------------------------------------------------------------------ *)
(* drf-dpor / drf-naive                                                *)
(* ------------------------------------------------------------------ *)

let timed acc calls f x =
  let t0 = now () in
  let r = f x in
  acc := !acc +. (now () -. t0);
  incr calls;
  r

(** The selection view [Race.drf ~engine:Dpor] explores, with its
    semantics step and state-key hashing timed. *)
let timed_selection () =
  let sys = Engine.selection_system in
  let step = ref 0. and steps = ref 0 and key = ref 0. and keys = ref 0 in
  ( {
      sys with
      Cas_mc.Mcsys.trans = timed step steps sys.trans;
      fingerprint = timed key keys sys.fingerprint;
    },
    fun m ->
      Meter.count m "explore.dpor.step.ms" (!step *. 1e3);
      Meter.count m "explore.dpor.step.calls" (float_of_int !steps);
      Meter.count m "explore.dpor.key.ms" (!key *. 1e3);
      Meter.count m "explore.dpor.key.calls" (float_of_int !keys) )

let count_explore m e ~worlds ~transitions ~truncated =
  Meter.count m ("explore." ^ e ^ ".worlds") (float_of_int worlds);
  Meter.count m ("explore." ^ e ^ ".transitions") (float_of_int transitions);
  Meter.count m ("explore." ^ e ^ ".truncated") (if truncated then 1. else 0.)

(** [Race.drf], one layer at a time: exploration by the engine, the race
    predictor in its visitor. Returns (DRF, truncated). *)
let traced_drf m ~engine w0 =
  let e = Engine.to_string engine in
  let predict_s = ref 0. and predicts = ref 0 in
  let predict = timed predict_s predicts Race.race_witness in
  (* the witness Race.drf keeps: naive stops predicting at the first
     racy world, dpor keeps the minimal witness key over all of them *)
  let found = ref None in
  let visit w =
    match engine with
    | Engine.Naive ->
      if !found = None && predict w <> None then found := Some ""
    | Engine.Dpor | Engine.Dpor_par -> (
      match predict w with
      | None -> ()
      | Some wt -> (
        let k = Race.witness_key w wt in
        match !found with Some k' when k' <= k -> () | _ -> found := Some k))
  in
  let st =
    Meter.span m ("explore." ^ e) (fun () ->
        match engine with
        | Engine.Naive -> Engine.explore ~engine w0 ~visit
        | Engine.Dpor | Engine.Dpor_par ->
          let sys, report = timed_selection () in
          let st = Cas_mc.Engine.reachable ~engine sys [ w0 ] ~visit in
          report m;
          st)
  in
  let open Cas_mc.Stats in
  count_explore m e ~worlds:st.worlds ~transitions:st.transitions
    ~truncated:st.truncated;
  Meter.count m ("explore." ^ e ^ ".store_hits") (float_of_int st.store_hits);
  if engine <> Engine.Naive then begin
    Meter.count m "explore.dpor.wakeups" (float_of_int st.backtracks);
    Meter.count m "explore.dpor.sleep_blocked" (float_of_int st.sleep_prunings)
  end;
  Meter.count m ("race." ^ e ^ ".predict.ms") (!predict_s *. 1e3);
  Meter.count m ("race." ^ e ^ ".predict.calls") (float_of_int !predicts);
  (!found = None, st.truncated)

let drf_op ~engine ~expect (p : Corpus.program) : op =
  let e = Engine.to_string engine in
  let run m =
    match load m p with
    | Error err -> Failed (Fmt.str "load: %a" World.pp_load_error err)
    | Ok w ->
      let drf, truncated =
        if m.Meter.tracing then traced_drf m ~engine w
        else begin
          let r = Race.drf ~engine w in
          let s = r.Race.stats in
          count_explore m e ~worlds:s.Explore.visited
            ~transitions:s.Explore.transitions ~truncated:s.Explore.truncated;
          (r.Race.drf, s.Explore.truncated)
        end
      in
      check ~show:show_drf ~expect ~decided:(not truncated) drf
  in
  { label = p.Corpus.label; prepare = ignore; run }

(** Two-thread programs, every fourth one linked with γ_lock (the
    generator's own lock rate), then the concurrent corpus. *)
let drf_programs ~seed ~count =
  let gen =
    generate ~seed ~size:4 ~count ~shape:(fun i -> (2, i mod 4 = 0))
    |> Array.to_list
    |> List.map (fun p -> (p, None))
  in
  gen @ List.map (fun (p, b) -> (p, Some b)) Corpus.drf

let drf_ops ~engine ~golden ~seed ~count =
  drf_programs ~seed ~count
  |> List.map (fun (p, expect) ->
         let expect =
           match expect with
           | Some _ -> expect
           | None -> Hashtbl.find_opt golden (drf_key p)
         in
         drf_op ~engine ~expect p)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* tso-lemma16                                                         *)
(* ------------------------------------------------------------------ *)

(** Trace-enumeration bounds of every Lemma 16 check. The path budget is
    below [Objsim]'s default (150,000) because most generated programs
    exhaust it under the spinning TTAS lock: at the default, one client
    costs a quarter of a second and a run sees too few of them for its
    mean to settle. *)
let tso_max_steps = 3000

let tso_max_paths = 10_000
let engines = [ Engine.Naive; Engine.Dpor ]

(** [Objsim.check_drf_guarantee], one layer at a time. Returns (holds,
    complete). *)
let traced_guarantee m ~engine ~asm ~pi ~entries =
  let e = Engine.to_string engine in
  let max_steps = tso_max_steps and max_paths = tso_max_paths in
  let loaded =
    Meter.span m ("tso." ^ e ^ ".load") (fun () ->
        let gamma = Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) in
        let sc = Lang.prog [ Lang.Mod (Asm.lang, asm); gamma ] entries in
        (Cas_tso.Tso.load [ asm; pi ] entries, World.load sc ~args:[]))
  in
  match loaded with
  | Error err, _ | _, Error err ->
    Error (Fmt.str "load: %a" World.pp_load_error err)
  | Ok w_tso, Ok w_sc ->
    let t_tso, st_tso =
      Meter.span m ("tso." ^ e ^ ".tso_traces") (fun () ->
          Cas_tso.Tso.mc_traces ~engine ~max_steps ~max_paths w_tso)
    in
    let t_sc, st_sc =
      Meter.span m ("tso." ^ e ^ ".sc_traces") (fun () ->
          Engine.traces ~engine ~max_steps ~max_paths w_sc)
    in
    let r =
      Meter.span m ("tso." ^ e ^ ".refine") (fun () ->
          Refine.refines ~lhs:t_tso ~rhs:t_sc)
    in
    Meter.count m ("tso." ^ e ^ ".transitions")
      (float_of_int (st_tso.transitions + st_sc.transitions));
    Ok (r.holds, t_tso.complete && t_sc.complete)

let guarantee m ~engine ~asm ~pi ~entries =
  if m.Meter.tracing then traced_guarantee m ~engine ~asm ~pi ~entries
  else
    let g =
      Cas_tso.Objsim.check_drf_guarantee ~max_steps:tso_max_steps
        ~max_paths:tso_max_paths ~engine ~clients:[ asm ] ~pi
        ~gamma:(Cimp.gamma_lock ()) ~entries ()
    in
    let d = g.detail in
    if
      String.starts_with ~prefix:"TSO load" d
      || String.starts_with ~prefix:"SC load" d
    then Error d
    else Ok (g.holds, not (String.contains d '*'))

(** One client against each lock implementation, with both engines:
    decided verdicts must agree with each other and with the known
    answer. *)
let tso_op ~(expect : string -> bool option)
    ~(pis : (string * Asm.program) list) (p : Corpus.program) : op =
  let run m =
    let client = parse m (List.hd p.sources) in
    let asm =
      Meter.span m "compile" (fun () -> Cas_compiler.Driver.compile client)
    in
    let check_pi (pi_name, pi) =
      let results =
        List.map
          (fun engine ->
            let r = guarantee m ~engine ~asm ~pi ~entries:p.entries in
            (match r with
            | Ok (_, false) ->
              let e = Engine.to_string engine in
              Meter.count m ("tso." ^ e ^ ".incomplete") 1.
            | _ -> ());
            r)
          engines
      in
      match results with
      | [ Ok (h1, true); Ok (h2, true) ] when h1 <> h2 ->
        Failed
          (Printf.sprintf "%s: naive %s, dpor %s" pi_name (show_holds h1)
             (show_holds h2))
      | _ ->
        List.fold_left
          (fun acc r ->
            worst acc
              (match r with
              | Error e -> Failed e
              | Ok (holds, decided) ->
                check ~show:show_holds ~expect:(expect pi_name) ~decided holds))
          Decided results
    in
    List.fold_left (fun acc pi -> worst acc (check_pi pi)) Decided pis
  in
  { label = p.Corpus.label; prepare = ignore; run }

let pi_lock = ("pi_lock", Cas_tso.Locks.pi_lock)
let pi_lock_fenced = ("pi_lock_fenced", Cas_tso.Locks.pi_lock_fenced)

(** Two-thread clients, every other one using the lock, then the
    corpus counter against both TTAS variants. *)
let tso_programs ~seed ~count =
  let gen =
    generate ~seed ~size:3 ~count ~shape:(fun i -> (2, i mod 2 = 0))
    |> Array.to_list
    |> List.map (fun p -> (p, [ pi_lock ]))
  in
  let counter =
    {
      Corpus.label = "counter";
      sources = [ Corpus.counter ];
      entries = [ "inc"; "inc" ];
      with_lock = true;
    }
  in
  gen @ [ (counter, [ pi_lock; pi_lock_fenced ]) ]

let tso_ops ~golden ~seed ~count =
  tso_programs ~seed ~count
  |> List.map (fun ((p : Corpus.program), pis) ->
         let expect pi =
           if p.label = "counter" then Some true
           else Hashtbl.find_opt golden (tso_key p ~pi)
         in
         tso_op ~expect ~pis p)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* build-link                                                          *)
(* ------------------------------------------------------------------ *)

module Objfile = Cas_link.Objfile

let asm_instrs (p : Asm.program) =
  List.fold_left (fun n (f : Asm.func) -> n + List.length f.code) 0 p.funcs

(** [Objfile.build], one layer at a time: parse, the 16 passes (timed by
    the driver itself), the per-pass simulation checker, then sealing
    the object exactly as [Objfile.build] does. *)
let traced_build m ~name ~source =
  let open Cas_compiler in
  let options = Driver.default_options in
  let p = parse m source in
  let c =
    Meter.span m "compile" (fun () ->
        Driver.compile_unit ~options ~cache:true p)
  in
  List.iter
    (fun (st : Driver.pass_stat) ->
      Meter.count m ("pass." ^ st.st_pass ^ ".ms") (st.st_wall_ns /. 1e6))
    c.c_stats;
  Meter.count m "compile.asm_instrs" (float_of_int (asm_instrs c.c_asm));
  let reports =
    Meter.span m "checker" (fun () ->
        Cascompcert.Framework.check_passes ~cache:true ~options p)
  in
  Meter.count m "checker.steps"
    (float_of_int
       (List.fold_left
          (fun n (r : Cascompcert.Framework.pass_sim_report) ->
            n + r.checker_steps)
          0 reports));
  Meter.span m "objfile.seal" (fun () ->
      let o =
        {
          Objfile.o_name = name;
          o_version = Version.v;
          o_format = Objfile.format_version;
          o_source = source;
          o_options = options;
          o_context = c.c_context;
          o_asm = c.c_asm;
          o_exports = Objfile.exports_of_asm c.c_asm;
          o_imports = Objfile.imports_of_asm c.c_asm;
          o_cert = { Cas_link.Cert.verdicts = []; chain = "" };
          o_body_digest = "";
        }
      in
      let o = { o with o_body_digest = Objfile.body_digest_of o } in
      let cert =
        Cas_link.Cert.of_reports ~seed:(Objfile.cert_seed o) reports
      in
      if Cas_link.Cert.ok cert then Ok { o with o_cert = cert }
      else Error "compilation produced failing verdicts")

(** The object and whether every verdict of its certificate is
    decided. *)
let build m ~name ~source =
  let built =
    if m.Meter.tracing then traced_build m ~name ~source
    else begin
      Meter.count m "parse.kb" (kib source);
      Objfile.build ~name ~source ()
    end
  in
  Result.map
    (fun (o : Objfile.t) ->
      let verdicts = o.o_cert.verdicts in
      let inconclusive =
        List.filter
          (fun (e : Cas_link.Cert.entry) -> e.e_tag = "inconclusive")
          verdicts
      in
      Meter.count m "checker.verdicts" (float_of_int (List.length verdicts));
      Meter.count m "checker.inconclusive"
        (float_of_int (List.length inconclusive));
      (o, inconclusive = []))
    built

let linked_decided (l : Cas_link.Linker.outcome) =
  match l.lk_compose with
  | None -> true
  | Some r ->
    List.for_all
      (fun (c : Cascompcert.Framework.compose_module_report) ->
        match c.cm_outcome with
        | Cascompcert.Simulation.Sim_inconclusive _ -> false
        | _ -> true)
      r.comp_modules

(** One [casc build] of a module: build and certify it, round-trip the
    [.cao] text, then link it alone with certification from [entry] when
    it imports nothing. The certificate cache is cleared first, as a
    fresh process would find it. *)
let build_op ~name ~source ~entry : op =
  let run m =
    match build m ~name ~source with
    | Error e -> Failed e
    | Ok (o, built_decided) -> (
      let decoded =
        Meter.span m "objfile.codec" (fun () ->
            let s = Objfile.to_string o in
            Meter.count m "objfile.kb" (kib s);
            Objfile.of_string s)
      in
      match (decoded, entry) with
      | Error e, _ -> Failed ("object round trip: " ^ e)
      | Ok o, Some entry when o.o_imports = [] -> (
        let entries = [ entry ] in
        if m.Meter.tracing then
          ignore
            (Meter.span m "link.resolve" (fun () ->
                 Cas_link.Resolve.resolve ~entries [ o ]));
        match
          Meter.span m "link" (fun () ->
              Cas_link.Linker.link ~certify:true ~entries [ o ])
        with
        | Error e -> Failed (Fmt.str "link: %a" Cas_link.Linker.pp_error e)
        | Ok l ->
          Meter.count m "link.checker_steps"
            (float_of_int l.lk_stats.l_checker_steps);
          if built_decided && linked_decided l then Decided else Undecided)
      | Ok _, _ -> if built_decided then Decided else Undecided)
  in
  { label = name; prepare = Cas_compiler.Cache.clear_memory; run }

(** Generated modules with one, two or three thread functions in turn,
    every fourth one calling the lock (so it imports [lock]/[unlock] and
    is built but not linked), then the sequential corpus. *)
let build_modules ~seed ~count =
  let gen =
    generate ~seed ~size:15 ~count ~shape:(fun i ->
        (1 + (i mod 3), i mod 4 = 3))
    |> Array.to_list
    |> List.map (fun (p : Corpus.program) ->
           (p.label, List.hd p.sources, Some (List.hd p.entries)))
  in
  gen @ Corpus.modules

let build_ops ~seed ~count =
  build_modules ~seed ~count
  |> List.map (fun (name, source, entry) -> build_op ~name ~source ~entry)
  |> Array.of_list
