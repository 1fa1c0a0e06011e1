(** The verification framework of Fig. 2 (and its Fig. 3 extension lives
    in [Cas_tso.Objsim]), assembled as executable checks.

    Where the paper proves implications between semantic statements
    (numbered 1–8 in Fig. 2), we check each statement on a concrete
    program: DRF by exhaustive race prediction, ≈/⊑ by bounded trace-set
    comparison, the module-local simulation by lockstep co-execution, and
    det(tl) along target runs. A [run] therefore returns one report per
    arrow of Fig. 2, which the test-suite asserts and the figures
    example prints. *)

open Cas_base
open Cas_langs
open Cas_conc

type step_report = {
  id : string;  (** which arrow/premise of Fig. 2 *)
  label : string;
  ok : bool;
  detail : string;
}

let pp_step ppf r =
  Fmt.pf ppf "[%s] %-42s %s%s" r.id r.label
    (if r.ok then "ok" else "FAIL")
    (if r.detail = "" then "" else " — " ^ r.detail)

type input = {
  name : string;
  clients : Clight.program list;
  objects : Cimp.program list;  (** compiled by the identity translation *)
  entries : string list;
}

type bounds = {
  max_steps : int;
  max_paths : int;
  max_worlds : int;
}

let default_bounds = { max_steps = 3000; max_paths = 120_000; max_worlds = 120_000 }

let source_prog (i : input) : Lang.prog =
  Lang.prog
    (List.map (fun c -> Lang.Mod (Clight.lang, c)) i.clients
    @ List.map (fun o -> Lang.Mod (Cimp.lang, o)) i.objects)
    i.entries

(** The compilation of Fig. 3 step 1: CompCert on clients, IdTrans on
    objects. *)
let target_prog ?options (i : input) : Lang.prog =
  Lang.prog
    (List.map
       (fun c -> Lang.Mod (Asm.lang, Cas_compiler.Driver.compile ?options c))
       i.clients
    @ List.map (fun o -> Lang.Mod (Cimp.lang, o)) i.objects)
    i.entries

type run = {
  input_name : string;
  reports : step_report list;
  all_ok : bool;
}

let pp_run ppf r =
  Fmt.pf ppf "@[<v2>%s:%s@ %a@]" r.input_name
    (if r.all_ok then "" else " (FAILURES)")
    Fmt.(list ~sep:cut pp_step)
    r.reports

let np_traces_or_empty b p =
  match Refine.traces_of_np ~max_steps:b.max_steps ~max_paths:b.max_paths p with
  | Ok t -> t
  | Error _ -> { Explore.traces = Explore.TraceSet.empty; complete = false }

(** Execute the whole Fig. 2 pipeline on one program. *)
let check_fig2 ?(bounds = default_bounds) ?options (i : input) : run =
  let reports = ref [] in
  let report id label ok detail =
    reports := { id; label; ok; detail } :: !reports
  in
  let b = bounds in
  let src = source_prog i in
  let tgt = target_prog ?options i in
  (* premise: DRF of the source, preemptive *)
  (match World.load src ~args:[] with
  | Error e ->
    report "pre" "source loads" false (Fmt.str "%a" World.pp_load_error e)
  | Ok w_src -> (
    match World.load tgt ~args:[] with
    | Error e ->
      report "pre" "target loads" false (Fmt.str "%a" World.pp_load_error e)
    | Ok w_tgt ->
      let drf_src = Race.drf ~max_worlds:b.max_worlds w_src in
      report "pre" "DRF(S1 ∥ ... ∥ Sn)" drf_src.Race.drf
        (Fmt.str "%a" Explore.pp_stats drf_src.Race.stats);
      let npdrf_src = Race.npdrf ~max_worlds:b.max_worlds w_src in
      report "6" "DRF(S) => NPDRF(S)"
        (not drf_src.Race.drf || npdrf_src.Race.drf)
        "";
      let npdrf_tgt = Race.npdrf ~max_worlds:b.max_worlds w_tgt in
      report "7" "NPDRF preserved by compilation" npdrf_tgt.Race.drf
        (Fmt.str "%a" Explore.pp_stats npdrf_tgt.Race.stats);
      let drf_tgt = Race.drf ~max_worlds:b.max_worlds w_tgt in
      report "8" "NPDRF(C) => DRF(C)"
        (not npdrf_tgt.Race.drf || drf_tgt.Race.drf)
        (Fmt.str "%a" Explore.pp_stats drf_tgt.Race.stats);
      (* trace sets under the four semantics *)
      let pre w =
        fst (Engine.traces ~max_steps:b.max_steps ~max_paths:b.max_paths w)
      in
      let np w =
        Engine.np_traces ~max_steps:b.max_steps ~max_paths:b.max_paths w
      in
      let s_pre = pre w_src and s_np = np w_src in
      let t_pre = pre w_tgt and t_np = np w_tgt in
      let eq1 = Refine.equiv s_pre s_np in
      report "1" "S1 ∥...∥ Sn ≈ S1 |...| Sn (Lem. 9)" eq1.Refine.holds
        (Fmt.str "%a" Refine.pp_report eq1);
      let eq2 = Refine.equiv t_pre t_np in
      report "2" "C1 ∥...∥ Cn ≈ C1 |...| Cn (Lem. 9)" eq2.Refine.holds
        (Fmt.str "%a" Refine.pp_report eq2);
      let down = Refine.refines ~lhs:t_np ~rhs:s_np in
      report "5" "whole-program simulation (Lem. 6): C|... ⊑ S|..."
        down.Refine.holds
        (Fmt.str "%a" Refine.pp_report down);
      let up = Refine.refines ~lhs:s_np ~rhs:t_np in
      report "4" "flip with det(tl): S|... ⊑ C|..." up.Refine.holds
        (Fmt.str "%a" Refine.pp_report up);
      let final = Refine.refines ~lhs:t_pre ~rhs:s_pre in
      report "3" "semantics preservation: C ∥... ⊑ S ∥..." final.Refine.holds
        (Fmt.str "%a" Refine.pp_report final)));
  let reports = List.rev !reports in
  { input_name = i.name; reports; all_ok = List.for_all (fun r -> r.ok) reports }

(* ------------------------------------------------------------------ *)
(* Per-pass module-local simulation (Lem. 13 / Def. 10)                *)
(* ------------------------------------------------------------------ *)

type pass_sim_report = {
  pass : string;
  entry : string;
  verdict : Simulation.verdict;  (** the pair's certificate *)
  cached : bool;
      (** the verdict came from the certificate cache — the checker did
          not run for it in this call *)
  checker_steps : int;
      (** the length of the co-execution the verdict certifies, both
          sides' steps, when the checker ran for it in this call; 0 when
          it was cached. A stage's run shared by two pairs counts in
          both, so this is not the number of steps executed *)
}

(* [s] left-justified in [width] columns, as [%-*s] pads it *)
let add_padded b s width =
  Buffer.add_string b s;
  for _ = String.length s + 1 to width do
    Buffer.add_char b ' '
  done

(** The report's certify row, without a newline, appended to [b]: pass,
    entry, the verdict's text and whether the cache served it. *)
let add_pass_sim b r =
  add_padded b r.pass 14;
  Buffer.add_char b ' ';
  add_padded b r.entry 12;
  Buffer.add_char b ' ';
  Simulation.add_outcome b r.verdict.v_outcome;
  if r.cached then Buffer.add_string b " (cached)"

let sim_ok = function
  | Simulation.Sim_ok _ -> true
  | Simulation.Sim_inconclusive _ -> true (* bounded: no counterexample *)
  | Simulation.Sim_fail _ -> false

(** Per-function hit/miss aggregation of a certify report list: one row
    per function, in first-appearance order, with the verdict count, how
    many came from the cache (either tier) and the checker steps run.
    Shared by the [casc] CLI and the certification daemon, so both render
    the same rows for the same input. *)
let per_function_counts (reports : pass_sim_report list) :
    (string * (int * int * int)) list =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (r : pass_sim_report) ->
      let v, c, s =
        match Hashtbl.find_opt tbl r.entry with
        | Some x -> x
        | None ->
          order := r.entry :: !order;
          (0, 0, 0)
      in
      Hashtbl.replace tbl r.entry
        (v + 1, (c + if r.cached then 1 else 0), s + r.checker_steps))
    reports;
  List.rev_map (fun e -> (e, Hashtbl.find tbl e)) !order

(* Memoized simulation verdicts — the other half of the certificate
   cache, in two tiers.

   Function tier ("SimVerdict"): one verdict per (pair, function), keyed
   by what the checker reads ([verdict_key]). This is sound because
   [Simulation.check_sides] co-executes only the entry function — calls
   are cut at switch points and answered by the environment — so a
   verdict depends on nothing but the two bodies, the globals and the
   arguments. Editing one function of a module therefore re-runs the
   checker only for that function's path through the pipeline; every
   untouched function is a pure hit. The linker's check of an entry is
   the [Compiler] pair, so a link reads the build's verdicts.

   Module tier ("SimModule"): the full sweep for one compilation unit,
   keyed by its context hash (pipeline version + options + source). A
   hit here skips even the per-function digesting.

   Only default-environment, unaudited runs are memoized: a
   caller-supplied [env] is an arbitrary closure we cannot
   content-address, and an audit must see the checker run. *)
let verdicts : Simulation.verdict Cas_compiler.Cache.store =
  Cas_compiler.Cache.store ~name:"SimVerdict" ()

let module_verdicts :
    (string * string * Simulation.verdict) list Cas_compiler.Cache.store =
  Cas_compiler.Cache.store ~name:"SimModule" ()

(** A digest of [v] alone, marshalled without sharing: a unit's stages
    share one globals list in the process that compiled them, and each
    has its own copy when read from disk or from an object file. *)
let structural_digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(** The function-tier key of [pair] on one entry: both body digests
    ([Lang.digest_fundef]), both globals digests and the arguments,
    salted with the pipeline version, so a cache directory written by
    another build serves none of its verdicts. *)
let verdict_key ~pair ~(bodies : string * string)
    ~(globals : string * string) ~(args : Value.t list) =
  structural_digest (Cas_compiler.Pipeline.version, pair, bodies, globals, args)

(** Check the footprint-preserving simulation between every consecutive
    pair of pipeline stages, for every function of the module, on the
    execution driven by [env]. This is the executable analogue of
    verifying each pass of Fig. 11 against Def. 10. The stage list comes
    from the registered pipeline ([Cas_compiler.Pipeline.fig11]) via the
    packed trace of [Driver.compile_unit], so a newly registered pass is
    certified without touching this module. [cache:false] forces
    re-checking, and so does an [audit] ([Simulation.check_verdict]).

    Each stage's run of an entry is computed once and shared by the
    checks that read it ([Simulation.side]): the two pairs the stage
    borders, the [Compiler] pair for the first and last stage, and every
    pair whose pass left the entry's body unchanged. A side is keyed by
    what its run reads: the entry's body digest (which names the IR),
    the stage's globals and the freelist. Pairs run in stage order, so
    an entry holds two sides, the latest built and stage 0's for the
    [Compiler] pair; the next distinct run replaces the latest. *)
let check_passes ?env ?audit ?(cache = true) ?options (p : Clight.program) :
    pass_sim_report list =
  let open Cas_compiler in
  let c = Driver.compile_unit ?options ~cache p in
  let entries = List.map (fun f -> f.Clight.fname) p.Clight.funcs in
  let entry_arity e =
    match List.find_opt (fun f -> f.Clight.fname = e) p.Clight.funcs with
    | Some f -> List.length f.Clight.fparams
    | None -> 0
  in
  let args_of e = List.init (entry_arity e) (fun i -> Value.Vint (7 + i)) in
  let memoizable = cache && env = None && audit = None in
  let stages = Array.of_list c.Driver.c_trace in
  let last = Array.length stages - 1 in
  (* Per-pass pairs of stage indices, plus the whole compiler end to end
     (Lem. 13 / Correct(CompCert)). *)
  let pairs =
    List.init last (fun k -> (fst stages.(k + 1), k, k + 1))
    @ [ ("Compiler", 0, last) ]
  in
  (* Every stage's function bodies, digested once per (stage, entry): a
     stage is the target of one pair and the source of the next. *)
  let body_digests =
    lazy
      (Array.map
         (fun (_, m) -> Array.of_list (List.map (Lang.digest_fundef m) entries))
         stages)
  in
  let globals_of k =
    let (Lang.Mod (l, code)) = snd stages.(k) in
    l.Lang.globals_of code
  in
  (* Per stage, built the first time a side or a verdict key of the
     stage needs it: its global environment and its globals digest. *)
  let genvs =
    Array.init (last + 1) (fun k -> lazy (Genv.link [ globals_of k ]))
  in
  let globals_digests =
    Array.init (last + 1) (fun k -> lazy (structural_digest (globals_of k)))
  in
  (* Function-tier hits recorded while producing the sweep, consulted
     when the reports are assembled below. *)
  let fn_hits : (string * string, bool) Hashtbl.t = Hashtbl.create 64 in
  (* Every pair's verdict for entry [e]. A stage reuses the latest side
     or stage 0's when its key equals that side's; a pair the cache
     serves builds no side. *)
  let entry_verdicts e entry =
    let latest = ref None and first = ref None in
    let side k ~fl =
      let key =
        ((Lazy.force body_digests).(k).(e), Lazy.force globals_digests.(k), fl)
      in
      match (!latest, !first) with
      | Some (key', s), _ when key' = key -> s
      | _, Some (key', s) when key' = key -> s
      | _ ->
        let s =
          Simulation.side ?env ?audit (snd stages.(k))
            ~genv:(Lazy.force genvs.(k)) ~fl ~entry ~args:(args_of entry)
        in
        latest := Some (key, s);
        if k = 0 then first := Some (key, s);
        s
    in
    let verdict (pass, src, tgt) =
      let run () =
        let fl = Simulation.freelist (Lazy.force genvs.(src)) in
        (* the source first, while its run is still the latest side *)
        let s = side src ~fl in
        Simulation.check_sides s (side tgt ~fl)
      in
      let v, hit =
        if not memoizable then (run (), `Off)
        else
          let digests = Lazy.force body_digests in
          let key =
            verdict_key ~pair:pass
              ~bodies:(digests.(src).(e), digests.(tgt).(e))
              ~globals:
                ( Lazy.force globals_digests.(src),
                  Lazy.force globals_digests.(tgt) )
              ~args:(args_of entry)
          in
          Cache.find_or_add verdicts key run
      in
      Hashtbl.replace fn_hits (pass, entry) (hit = `Hit);
      v
    in
    Array.of_list (List.map verdict pairs)
  in
  (* Entry by entry, so that one entry's sides are alive at a time; the
     triples come out pass by pass. *)
  let sweep () =
    let by_entry = List.mapi entry_verdicts entries in
    List.concat
      (List.mapi
         (fun i (pass, _, _) ->
           List.map2 (fun entry vs -> (pass, entry, vs.(i))) entries by_entry)
         pairs)
  in
  let triples, module_hit =
    if not memoizable then (sweep (), `Off)
    else
      let key = Cache.digest (c.Driver.c_context, "sim-module") in
      Cache.find_or_add module_verdicts key sweep
  in
  (* One source of truth for the stats: a verdict is [cached] iff it was
     served by either tier, and cached verdicts report 0 checker steps. *)
  List.map
    (fun (pass, entry, v) ->
      let cached =
        module_hit = `Hit
        || Option.value ~default:false (Hashtbl.find_opt fn_hits (pass, entry))
      in
      {
        pass;
        entry;
        verdict = v;
        cached;
        checker_steps = (if cached then 0 else Simulation.verdict_steps v);
      })
    triples

(* ------------------------------------------------------------------ *)
(* Certificate composition at link time (Lem. 6, empirically)          *)
(* ------------------------------------------------------------------ *)

(** One module's contribution to the whole-program certificate: the
    end-to-end module-local simulation re-established (or fetched from
    the certificate cache) against the module's *linked* role. *)
type compose_module_report = {
  cm_module : string;  (** module name, e.g. the object file it came from *)
  cm_entry : string;
  cm_outcome : Simulation.outcome;
  cm_cached : bool;
  cm_steps : int;
      (** the length of the co-execution the verdict certifies, both
          sides' steps, when the checker ran for it in this call; 0 if
          cached *)
}

let pp_compose_module ppf r =
  Fmt.pf ppf "%-16s %-12s %a%s" r.cm_module r.cm_entry Simulation.pp_outcome
    r.cm_outcome
    (if r.cm_cached then " (cached)" else "")

(** The whole-program certificate produced by composing per-module
    certificates, as the linker checks it. The paper *proves* the linking
    lemma (Lem. 6): footprint-preserving module-local simulations
    compose into a whole-program simulation, provided each module's
    footprint stays confined to its own freelist and the shared globals.
    We check exactly those premises on the linked program:

    - [comp_modules]: each module's simulation re-validated (or reused
      from the certificate cache when the object is byte-identical);
    - [comp_confinement]: every step of every reachable world of the
      linked target touches only shared globals and the scheduled
      thread's freelist — the disjointness premise that makes the
      per-module footprints composable;
    - [comp_boundary]: the composed simulation itself, re-validated by
      co-executing the linked source and target programs and comparing
      their bounded trace sets (target ⊑ source, non-preemptive — the
      conclusion of Lem. 6 at the link boundary). *)
type compose_report = {
  comp_modules : compose_module_report list;
  comp_confinement : step_report;
  comp_boundary : step_report;
  comp_ok : bool;
}

let pp_compose ppf r =
  Fmt.pf ppf "@[<v>%a@ %a@ %a@]"
    Fmt.(list ~sep:cut pp_compose_module)
    r.comp_modules pp_step r.comp_confinement pp_step r.comp_boundary

(** Footprint confinement of the linked program: explore the reachable
    worlds (preemptive, bounded by [default_bounds.max_worlds]) and
    verify that every enabled local step's footprint stays inside the
    shared global blocks plus the scheduled thread's own freelist. *)
let check_confinement (tgt : Lang.prog) : step_report =
  let label = "footprints confined to freelists" in
  match World.load tgt ~args:[] with
  | Error e ->
    {
      id = "conf";
      label;
      ok = false;
      detail = Fmt.str "target loads: %a" World.pp_load_error e;
    }
  | Ok w0 ->
    let nglobals = Genv.block_count w0.World.genv in
    let violation = ref None in
    let check_world w =
      if !violation = None then
        List.iter
          (fun tid ->
            match World.IMap.find_opt tid w.World.threads with
            | None -> ()
            | Some t ->
              List.iter
                (function
                  | World.LAbort -> ()
                  | World.LNext (_, fp, _) ->
                    let confined =
                      Footprint.for_all
                        (fun (a : Addr.t) ->
                          a.Addr.block < nglobals
                          || Flist.owns_addr t.World.flist a)
                        fp
                    in
                    if (not confined) && !violation = None then
                      violation := Some (tid, fp))
                (World.local_steps w tid))
          (World.live_tids w)
    in
    let st =
      Engine.explore ~max_worlds:default_bounds.max_worlds w0 ~visit:check_world
    in
    (match !violation with
    | Some (tid, fp) ->
      {
        id = "conf";
        label;
        ok = false;
        detail =
          Fmt.str "thread %d escapes its freelist: %a" tid Footprint.pp fp;
      }
    | None ->
      {
        id = "conf";
        label;
        ok = true;
        detail = Fmt.str "%a" Explore.pp_stats (Explore.stats_of_mc st);
      })

(** Compose per-module certificates into a whole-program certificate on
    the linked program.

    [modules] pairs each module name with its source and target forms;
    [entries] are the linked program's thread entry points. Each module
    entry's check is [check_passes]'s [Compiler] pair, under the same
    [verdict_key]: a link after a build, or a relink, re-verifies no
    unchanged function, and two same-named modules with different bodies
    never share a key (an absent function digests to a bare prefix no
    defined one can collide with). [jobs > 1] fans the per-module checks
    out over OCaml 5 domains. *)
let compose_certificates ?(jobs = 1)
    ~(modules : (string * Lang.modu * Lang.modu) list)
    ~(entries : string list) () : compose_report =
  let module_task (name, src_mod, tgt_mod) () : compose_module_report list =
    match (src_mod, tgt_mod) with
    | Lang.Mod (sl, sc), Lang.Mod (tl, tc) ->
      let globals =
        ( structural_digest (sl.Lang.globals_of sc),
          structural_digest (tl.Lang.globals_of tc) )
      in
      List.map
        (fun (entry, arity) ->
          let args = List.init arity (fun i -> Value.Vint (7 + i)) in
          let run () =
            Simulation.check_verdict ~src:(sl, sc) ~tgt:(tl, tc) ~entry ~args
              ()
          in
          let key =
            verdict_key ~pair:"Compiler"
              ~bodies:
                ( Lang.digest_fundef src_mod entry,
                  Lang.digest_fundef tgt_mod entry )
              ~globals ~args
          in
          let v, hit = Cas_compiler.Cache.find_or_add verdicts key run in
          let cached = hit = `Hit in
          {
            cm_module = name;
            cm_entry = entry;
            cm_outcome = v.Simulation.v_outcome;
            cm_cached = cached;
            cm_steps = (if cached then 0 else Simulation.verdict_steps v);
          })
        (Lang.defs tgt_mod)
  in
  let per_module =
    List.concat (Pool.run ~jobs (List.map module_task modules))
  in
  let src_prog = Lang.prog (List.map (fun (_, s, _) -> s) modules) entries in
  let tgt_prog = Lang.prog (List.map (fun (_, _, t) -> t) modules) entries in
  let confinement = check_confinement tgt_prog in
  let boundary =
    let t_np = np_traces_or_empty default_bounds tgt_prog in
    let s_np = np_traces_or_empty default_bounds src_prog in
    let r = Refine.refines ~lhs:t_np ~rhs:s_np in
    {
      id = "link";
      label = "linked target ⊑ linked source (Lem. 6)";
      ok = r.Refine.holds;
      detail = Fmt.str "%a" Refine.pp_report r;
    }
  in
  let modules_ok =
    List.for_all (fun r -> sim_ok r.cm_outcome) per_module
  in
  {
    comp_modules = per_module;
    comp_confinement = confinement;
    comp_boundary = boundary;
    comp_ok = modules_ok && confinement.ok && boundary.ok;
  }
