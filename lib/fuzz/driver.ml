(** Differential fuzz campaigns (ISSUE 9 tentpole, part 3).

    [run] generates [count] programs from one seeded splittable stream
    and pushes each through the differential oracles:

    - engine oracle: [Race.drf] under [--engine naive] vs [dpor] must
      agree on the DRF verdict, and DPOR must visit no more worlds than
      the naive search of the same graph (that is the whole point of
      the reduction); with
      [engine_par = Some jobs] a fourth lane runs [dpor-par] on [jobs]
      domains and must reproduce dpor's verdict *and* world count
      exactly (the visited-world set is steal-invariant);
    - compiler oracle (Clight campaigns, DRF programs only — racy
      source voids the compiler's guarantee, exactly as in the paper):
      the bounded trace sets of the source Clight world and the compiled
      Asm world must be ≈-equivalent;
    - fingerprint oracle: every [paranoid_every]-th program re-runs the
      naive search with worlds keyed by their full fingerprint strings
      ([--paranoid-fp]) and must reproduce the same verdict and world
      count.

    Outcomes land in buckets (agree / verdict-divergence /
    world-count-divergence / crash / timeout). Every verdict divergence
    is auto-shrunk with [Cas_diag.Shrink] ddmin, back-translated to a
    standalone CImp repro by [Backtrans], written to [out_dir], and
    replayed on the spot — the report records whether the repro
    reproduces the recorded verdict.

    Determinism: the report is a pure function of (seed, count, size,
    budget, lang, flags). No wall-clock data is recorded, and the
    timeout bucket is budget-based (exploration truncation), so two
    runs of the same campaign emit byte-identical [--json] reports. *)

open Cas_base
module Witness = Cas_diag.Witness
module Json = Cas_diag.Json

type bucket = Agree | Verdict_div | World_div | Crash | Timeout

let bucket_name = function
  | Agree -> "agree"
  | Verdict_div -> "verdict-divergence"
  | World_div -> "world-count-divergence"
  | Crash -> "crash"
  | Timeout -> "timeout"

type case = {
  c_index : int;
  c_bucket : bucket;
  c_detail : string;
  c_source : string;  (** the generated program *)
  c_repro : string option;  (** back-translated repro file, if written *)
  c_replay : string option;  (** "reproduced" or the replay error *)
  c_shrink : (int * int) option;  (** witness steps before/after ddmin *)
}

type report = {
  r_seed : int;
  r_count : int;
  r_size : int;
  r_budget : int;
  r_lang : Gen.lang;
  r_inject : bool;
  r_engine_par : int option;  (** dpor-par lane domain count, if enabled *)
  r_agree : int;
  r_verdict_div : int;
  r_world_div : int;
  r_crash : int;
  r_timeout : int;
  r_drf : int;  (** programs both engines called DRF *)
  r_racy : int;  (** programs both engines called racy *)
  r_cases : case list;  (** every non-[Agree] case, in index order *)
}

(* ------------------------------------------------------------------ *)
(* Injection (the deliberately broken pass, under a test flag)         *)
(* ------------------------------------------------------------------ *)

(* Perturb the first [print] argument of the program fed to the
   *compiler only*: a minimal stand-in for a miscompiling pass, visible
   to the compiler oracle as a Print-event divergence. *)
let inject_print (p : Cas_langs.Clight.program) : Cas_langs.Clight.program =
  let open Cas_langs.Clight in
  let hit = ref false in
  let rec stmt = function
    | Scall (dst, "print", [ e ]) when not !hit ->
      hit := true;
      Scall (dst, "print", [ Ebinop (Cas_langs.Ops.Oadd, e, Econst 1) ])
    | Sseq (a, b) ->
      let a = stmt a in
      Sseq (a, stmt b)
    | Sif (e, a, b) ->
      let a = stmt a in
      Sif (e, a, stmt b)
    | Swhile (e, s) -> Swhile (e, stmt s)
    | s -> s
  in
  {
    p with
    funcs = List.map (fun f -> { f with fbody = stmt f.fbody }) p.funcs;
  }

(* ------------------------------------------------------------------ *)
(* Per-program oracles                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_bucket : bucket;
  o_detail : string;
  o_drf : bool option;  (** agreed verdict, when the engines agree *)
  o_witness : (Witness.t * Cas_diag.Sem.state) option;
      (** divergence evidence: a witness plus the semantics it shrinks
          against (which may be the perturbed compiled world) *)
}

let ok_outcome ~drf detail =
  { o_bucket = Agree; o_detail = detail; o_drf = Some drf; o_witness = None }

let load_prog (p : Lang.prog) : (Cas_conc.World.t, string) result =
  match Cas_conc.World.load p ~args:[] with
  | Ok w -> Ok w
  | Error e -> Error (Fmt.str "load: %a" Cas_conc.World.pp_load_error e)

let mods_with_lock ~with_lock m =
  if with_lock then
    [ m; Lang.Mod (Cas_langs.Cimp.lang, Cas_langs.Cimp.gamma_lock ()) ]
  else [ m ]

(** The engine + fingerprint oracles on one loaded source world.
    Returns the agreed report, or a divergence outcome. *)
let engine_oracle ~budget ~paranoid ~engine_par (g : Gen.t) w0 :
    (Cas_conc.Race.drf_report, outcome) result =
  let naive =
    Cas_conc.Race.drf ~max_worlds:budget ~engine:Cas_mc.Engine.Naive w0
  in
  let dpor =
    Cas_conc.Race.drf ~max_worlds:budget ~engine:Cas_mc.Engine.Dpor w0
  in
  let truncated (r : Cas_conc.Race.drf_report) =
    r.Cas_conc.Race.stats.Cas_conc.Explore.truncated
  in
  if truncated naive || truncated dpor then
    Error
      {
        o_bucket = Timeout;
        o_detail =
          Fmt.str "drf search truncated at %d worlds (naive %b, dpor %b)"
            budget (truncated naive) (truncated dpor);
        o_drf = None;
        o_witness = None;
      }
  else if naive.Cas_conc.Race.drf <> dpor.Cas_conc.Race.drf then begin
    (* engine disagreement: capture the racy side's schedule *)
    let racy_engine =
      if naive.Cas_conc.Race.drf then Cas_mc.Engine.Dpor
      else Cas_mc.Engine.Naive
    in
    let rc = Cas_diag.Capture.race ~engine:racy_engine ~max_worlds:budget w0 in
    let witness =
      match rc.Cas_diag.Capture.rc_verdict with
      | Some verdict ->
        Some
          ( Witness.make ~program:g.Gen.g_source ~entries:g.Gen.g_entries
              ~with_lock:g.Gen.g_with_lock ~semantics:Witness.Sc
              ~engine:(Cas_mc.Engine.to_string racy_engine)
              ~seed:0 ~verdict rc.Cas_diag.Capture.rc_steps,
            Cas_diag.Sem.sc w0 )
      | None -> None
    in
    Error
      {
        o_bucket = Verdict_div;
        o_detail =
          Fmt.str "engine disagreement: naive says %s, dpor says %s"
            (if naive.Cas_conc.Race.drf then "DRF" else "racy")
            (if dpor.Cas_conc.Race.drf then "DRF" else "racy");
        o_drf = None;
        o_witness = witness;
      }
  end
  else if
    dpor.Cas_conc.Race.stats.Cas_conc.Explore.visited
    > naive.Cas_conc.Race.stats.Cas_conc.Explore.visited
  then
    Error
      {
        o_bucket = World_div;
        o_detail =
          Fmt.str "dpor visited %d worlds, naive only %d"
            dpor.Cas_conc.Race.stats.Cas_conc.Explore.visited
            naive.Cas_conc.Race.stats.Cas_conc.Explore.visited;
        o_drf = None;
        o_witness = None;
      }
  else
    let par_div =
      match engine_par with
      | None -> None
      | Some jobs ->
        let par =
          Cas_conc.Race.drf ~max_worlds:budget
            ~engine:Cas_mc.Engine.Dpor_par ~jobs w0
        in
        if par.Cas_conc.Race.drf <> dpor.Cas_conc.Race.drf then
          Some
            {
              o_bucket = Verdict_div;
              o_detail =
                Fmt.str "dpor-par(%d) disagreement: dpor says %s, par says %s"
                  jobs
                  (if dpor.Cas_conc.Race.drf then "DRF" else "racy")
                  (if par.Cas_conc.Race.drf then "DRF" else "racy");
              o_drf = None;
              o_witness = None;
            }
        else if
          par.Cas_conc.Race.stats.Cas_conc.Explore.visited
          <> dpor.Cas_conc.Race.stats.Cas_conc.Explore.visited
        then
          Some
            {
              o_bucket = World_div;
              o_detail =
                Fmt.str
                  "dpor-par(%d) visited %d worlds, dpor %d (steal-variant \
                   world set)"
                  jobs par.Cas_conc.Race.stats.Cas_conc.Explore.visited
                  dpor.Cas_conc.Race.stats.Cas_conc.Explore.visited;
              o_drf = None;
              o_witness = None;
            }
        else None
    in
    match par_div with
    | Some o -> Error o
    | None ->
  if paranoid then begin
    (* fingerprint spot-check: rerun the naive search with fingerprint
       keys; verdict and world count must not change *)
    let pnaive =
      Cas_conc.Race.drf ~max_worlds:budget ~engine:Cas_mc.Engine.Naive
        ~keys:Cas_mc.Mcsys.Fingerprint w0
    in
    if
      pnaive.Cas_conc.Race.drf <> naive.Cas_conc.Race.drf
      || pnaive.Cas_conc.Race.stats.Cas_conc.Explore.visited
         <> naive.Cas_conc.Race.stats.Cas_conc.Explore.visited
    then
      Error
        {
          o_bucket = Verdict_div;
          o_detail =
            Fmt.str "paranoid-fp mismatch: verdict %b/%b, worlds %d/%d"
              naive.Cas_conc.Race.drf pnaive.Cas_conc.Race.drf
              naive.Cas_conc.Race.stats.Cas_conc.Explore.visited
              pnaive.Cas_conc.Race.stats.Cas_conc.Explore.visited;
          o_drf = None;
          o_witness = None;
        }
    else Ok naive
  end
  else Ok naive

(** The compiler oracle: bounded trace equivalence of the source Clight
    world against the compiled Asm world. Only called on DRF programs. *)
let compiler_oracle ~budget ~(g : Gen.t) ~src_w0 ~tgt_w0 : outcome =
  let explore w =
    fst (Cas_conc.Engine.traces ~max_steps:2000 ~max_paths:budget w)
  in
  let src_tr = explore src_w0 and tgt_tr = explore tgt_w0 in
  if not (src_tr.Cas_conc.Explore.complete && tgt_tr.Cas_conc.Explore.complete)
  then
    {
      o_bucket = Timeout;
      o_detail =
        Fmt.str "trace enumeration truncated (src %b, tgt %b)"
          src_tr.Cas_conc.Explore.complete tgt_tr.Cas_conc.Explore.complete;
      o_drf = None;
      o_witness = None;
    }
  else
    let eq = Cas_conc.Refine.equiv src_tr tgt_tr in
    if eq.Cas_conc.Refine.holds then ok_outcome ~drf:true "drf, traces agree"
    else begin
      (* divergence evidence: an abort discrepancy, or the first done
         trace one side has and the other lacks; the schedule is
         rediscovered on whichever side exhibits it *)
      let module E = Cas_conc.Explore in
      let elems tr = E.TraceSet.elements tr.E.traces in
      let has_abort tr =
        List.exists (fun (_, st) -> st = E.SAbort) (elems tr)
      in
      let dones tr =
        List.filter (fun (_, st) -> st = E.SDone) (elems tr)
      in
      let evidence =
        if has_abort src_tr <> has_abort tgt_tr then
          let w = if has_abort src_tr then src_w0 else tgt_w0 in
          Some (Witness.Vabort, w, None)
        else
          let pick mine theirs w =
            List.find_map
              (fun ((es, _) as tr) ->
                if E.TraceSet.mem tr theirs.E.traces then None
                else Some (Witness.Vrefine es, w, Some es))
              (dones mine)
          in
          match pick src_tr tgt_tr src_w0 with
          | Some e -> Some e
          | None -> pick tgt_tr src_tr tgt_w0
      in
      match evidence with
      | None ->
        (* prefix-closure-only mismatch: report without a schedule *)
        {
          o_bucket = Verdict_div;
          o_detail = "source/target trace sets differ (prefix closure)";
          o_drf = None;
          o_witness = None;
        }
      | Some (verdict, w, events) ->
        let s0 = Cas_diag.Sem.sc w in
        let steps =
          match events with
          | Some es ->
            Cas_diag.Capture.schedule_for_events s0 ~events:es ()
          | None -> Cas_diag.Capture.schedule_to_abort s0 ()
        in
        let witness =
          Option.map
            (fun steps ->
              ( Witness.make ~program:g.Gen.g_source ~entries:g.Gen.g_entries
                  ~with_lock:g.Gen.g_with_lock ~semantics:Witness.Sc
                  ~engine:"naive" ~seed:0 ~verdict steps,
                s0 ))
            steps
        in
        {
          o_bucket = Verdict_div;
          o_detail =
            Fmt.str "source/target divergence: %a" Witness.pp_verdict verdict;
          o_drf = None;
          o_witness = witness;
        }
    end

(* ------------------------------------------------------------------ *)
(* One program end to end                                              *)
(* ------------------------------------------------------------------ *)

let run_one ~budget ~paranoid ~inject ~engine_par (g : Gen.t) : outcome =
  match g.Gen.g_lang with
  | Gen.Cimp -> (
    match
      try Ok (Cas_langs.Parse.cimp g.Gen.g_source) with
      | Cas_langs.Lexer.Error (m, _) -> Error (Fmt.str "cimp parse: %s" m)
    with
    | Error e ->
      { o_bucket = Crash; o_detail = e; o_drf = None; o_witness = None }
    | Ok prog -> (
      let p =
        Lang.prog
          [ Lang.Mod (Cas_langs.Cimp.lang, prog) ]
          g.Gen.g_entries
      in
      match load_prog p with
      | Error e ->
        { o_bucket = Crash; o_detail = e; o_drf = None; o_witness = None }
      | Ok w0 -> (
        match engine_oracle ~budget ~paranoid ~engine_par g w0 with
        | Error o -> o
        | Ok rep ->
          ok_outcome ~drf:rep.Cas_conc.Race.drf
            (if rep.Cas_conc.Race.drf then "drf" else "racy"))))
  | Gen.Clight -> (
    match
      try Ok (Cas_langs.Parse.clight g.Gen.g_source) with
      | Cas_langs.Lexer.Error (m, _) -> Error (Fmt.str "clight parse: %s" m)
    with
    | Error e ->
      { o_bucket = Crash; o_detail = e; o_drf = None; o_witness = None }
    | Ok client -> (
      let src_p =
        Lang.prog
          (mods_with_lock ~with_lock:g.Gen.g_with_lock
             (Lang.Mod (Cas_langs.Clight.lang, client)))
          g.Gen.g_entries
      in
      match load_prog src_p with
      | Error e ->
        { o_bucket = Crash; o_detail = e; o_drf = None; o_witness = None }
      | Ok src_w0 -> (
        match engine_oracle ~budget ~paranoid ~engine_par g src_w0 with
        | Error o -> o
        | Ok rep ->
          if not rep.Cas_conc.Race.drf then
            (* racy source voids the compiler contract; the engines
               agreeing on the race verdict is the whole check *)
            ok_outcome ~drf:false "racy, engines agree"
          else begin
            let compiled =
              if inject then inject_print client else client
            in
            let tgt_p =
              Lang.prog
                (mods_with_lock ~with_lock:g.Gen.g_with_lock
                   (Lang.Mod
                      ( Cas_langs.Asm.lang,
                        Cas_compiler.Driver.compile compiled )))
                g.Gen.g_entries
            in
            match load_prog tgt_p with
            | Error e ->
              {
                o_bucket = Crash;
                o_detail = Fmt.str "compiled %s" e;
                o_drf = None;
                o_witness = None;
              }
            | Ok tgt_w0 -> compiler_oracle ~budget ~g ~src_w0 ~tgt_w0
          end)))

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

(* Writes to [out_dir] raise [Sys_error] naming the path that failed. *)
let write_text ~file text =
  Out_channel.with_open_bin file (fun oc -> output_string oc text)

let prepare_out_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": Not a directory"))

let shrink_and_backtranslate ~shrink_budget ~out_dir ~index
    ((wit : Witness.t), (s0 : Cas_diag.Sem.state)) :
    (int * int) option * string option * string option =
  let sh = Cas_diag.Shrink.shrink ~max_attempts:shrink_budget s0 wit in
  let shrunk = sh.Cas_diag.Shrink.sh_witness in
  let shrink_info =
    Some (sh.Cas_diag.Shrink.sh_orig_steps, sh.Cas_diag.Shrink.sh_min_steps)
  in
  match Backtrans.of_witness shrunk with
  | Error e -> (shrink_info, None, Some (Fmt.str "back-translation: %s" e))
  | Ok repro -> (
    let replay =
      match Backtrans.replay repro with
      | Ok () -> "reproduced"
      | Error e -> e
    in
    match out_dir with
    | None -> (shrink_info, None, Some replay)
    | Some dir ->
      let file = Filename.concat dir (Fmt.str "repro-%04d.cimp" index) in
      write_text ~file repro.Backtrans.r_source;
      (shrink_info, Some file, Some replay))

type progress = index:int -> bucket -> unit

(** Raises [Sys_error] naming the path, before the first program, when
    [out_dir] is not a directory and cannot be created, and later when
    a case or repro file cannot be written there. *)
let run ?(size = 8) ?(budget = 20_000) ?(shrink_budget = 2_000)
    ?(paranoid_every = 50) ?(inject = false) ?engine_par ?out_dir
    ?(progress : progress option) ~seed ~count (lang : Gen.lang) : report =
  Option.iter prepare_out_dir out_dir;
  let master = Rng.make ~seed in
  let agree = ref 0
  and verdict_div = ref 0
  and world_div = ref 0
  and crash = ref 0
  and timeout = ref 0
  and drf = ref 0
  and racy = ref 0
  and cases = ref [] in
  for index = 0 to count - 1 do
    let prng = Rng.split master in
    let g = Gen.program ~lang prng ~size in
    let paranoid = paranoid_every > 0 && index mod paranoid_every = 0 in
    let o =
      try run_one ~budget ~paranoid ~inject ~engine_par g with
      | exn ->
        {
          o_bucket = Crash;
          o_detail = Fmt.str "exception: %s" (Printexc.to_string exn);
          o_drf = None;
          o_witness = None;
        }
    in
    (match o.o_bucket with
    | Agree ->
      incr agree;
      (match o.o_drf with
      | Some true -> incr drf
      | Some false -> incr racy
      | None -> ())
    | Verdict_div -> incr verdict_div
    | World_div -> incr world_div
    | Crash -> incr crash
    | Timeout -> incr timeout);
    (match progress with Some f -> f ~index o.o_bucket | None -> ());
    if o.o_bucket <> Agree then begin
      (* always keep the offending generated program itself *)
      (match out_dir with
      | Some dir ->
        let ext = match lang with Gen.Clight -> "c" | Gen.Cimp -> "cimp" in
        write_text
          ~file:(Filename.concat dir (Fmt.str "case-%04d.%s" index ext))
          g.Gen.g_source
      | None -> ());
      let shrink_info, repro, replay =
        match o.o_witness with
        | Some ws ->
          shrink_and_backtranslate ~shrink_budget ~out_dir ~index ws
        | None -> (None, None, None)
      in
      cases :=
        {
          c_index = index;
          c_bucket = o.o_bucket;
          c_detail = o.o_detail;
          c_source = g.Gen.g_source;
          c_repro = repro;
          c_replay = replay;
          c_shrink = shrink_info;
        }
        :: !cases
    end
  done;
  {
    r_seed = seed;
    r_count = count;
    r_size = size;
    r_budget = budget;
    r_lang = lang;
    r_inject = inject;
    r_engine_par = engine_par;
    r_agree = !agree;
    r_verdict_div = !verdict_div;
    r_world_div = !world_div;
    r_crash = !crash;
    r_timeout = !timeout;
    r_drf = !drf;
    r_racy = !racy;
    r_cases = List.rev !cases;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let report_to_json (r : report) : Json.t =
  Json.Obj
    [
      ("seed", Json.Int r.r_seed);
      ("count", Json.Int r.r_count);
      ("size", Json.Int r.r_size);
      ("budget", Json.Int r.r_budget);
      ("lang", Json.Str (Gen.lang_to_string r.r_lang));
      ("inject", Json.Bool r.r_inject);
      ( "engine_par",
        match r.r_engine_par with Some j -> Json.Int j | None -> Json.Null );
      ( "buckets",
        Json.Obj
          [
            ("agree", Json.Int r.r_agree);
            ("verdict_divergence", Json.Int r.r_verdict_div);
            ("world_count_divergence", Json.Int r.r_world_div);
            ("crash", Json.Int r.r_crash);
            ("timeout", Json.Int r.r_timeout);
          ] );
      ("drf", Json.Int r.r_drf);
      ("racy", Json.Int r.r_racy);
      ( "cases",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 ([
                    ("index", Json.Int c.c_index);
                    ("bucket", Json.Str (bucket_name c.c_bucket));
                    ("detail", Json.Str c.c_detail);
                    ("source", Json.Str c.c_source);
                  ]
                 @ (match c.c_shrink with
                   | Some (orig, min) ->
                     [
                       ( "shrink",
                         Json.Obj
                           [
                             ("orig_steps", Json.Int orig);
                             ("min_steps", Json.Int min);
                           ] );
                     ]
                   | None -> [])
                 @ (match c.c_repro with
                   | Some f -> [ ("repro", Json.Str f) ]
                   | None -> [])
                 @
                 match c.c_replay with
                 | Some s -> [ ("replay", Json.Str s) ]
                 | None -> []))
             r.r_cases) );
    ]

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "@[<v>fuzz campaign: seed %d, %d %s programs, budget %d%s%s@,\
     agree %d (drf %d, racy %d)@,\
     verdict-divergence %d, world-count-divergence %d, crash %d, timeout %d@]"
    r.r_seed r.r_count
    (Gen.lang_to_string r.r_lang)
    r.r_budget
    (if r.r_inject then " [inject]" else "")
    (match r.r_engine_par with
    | Some j -> Fmt.str " [dpor-par %d]" j
    | None -> "")
    r.r_agree r.r_drf r.r_racy r.r_verdict_div r.r_world_div r.r_crash
    r.r_timeout

(** Zero unexplained divergences: the acceptance gate for clean
    campaigns ([--inject] campaigns are expected to diverge). *)
let clean (r : report) : bool =
  r.r_verdict_div = 0 && r.r_world_div = 0 && r.r_crash = 0
