(** The CASCompCert compilation driver, on top of the first-class pass
    manager: the Fig. 11 pipeline (plus the ConstProp/CSE extensions) is
    the registered chain [Pipeline.fig11]; the driver only decides *how*
    each pass executes — bare, or through the certificate cache with
    per-pass instrumentation.

    Separate compilation is content-addressed: a unit's compilation
    context hashes to [context_hash] = H(pipeline version, options,
    source unit), each pass output is memoized under
    [H(context, pass name)] ([Cache.key]), and unchanged units are all
    cache hits — including, one layer up ([Cascompcert.Framework]), their
    footprint-preserving simulation verdicts. [compile_all] builds
    independent units in parallel on OCaml 5 domains ([Cas_base.Pool]). *)

open Cas_base
open Cas_langs

type options = Pass.options = {
  optimize : bool;  (** run Tailcall/ConstProp/CSE/Deadcode *)
}

let default_options = Pass.default_options

(** Names and order of the pipeline stages, for reports (Fig. 11). *)
let pass_names = Pipeline.names ()

(** Content hash of one unit's compilation context: pipeline version,
    options, and the source unit itself. Every per-pass artifact key and
    every memoized simulation verdict derives from it. *)
let context_hash ?(options = default_options) (p : Clight.program) : string =
  Cache.digest (Pipeline.version, options, Cache.digest p)

(* ------------------------------------------------------------------ *)
(* Intermediate snapshots of one compilation unit                      *)
(* ------------------------------------------------------------------ *)

type artifacts = {
  clight : Clight.program;
  clight_simpl : Clight.program;
  csharpminor : Csharpminor.program;
  cminor : Cminor.program;
  cminorsel : Cminor.program;
  rtl : Rtl.program;
  rtl_tailcall : Rtl.program;
  rtl_renumber : Rtl.program;
  rtl_constprop : Rtl.program;
  rtl_cse : Rtl.program;
  rtl_deadcode : Rtl.program;
  ltl : Ltl.program;
  ltl_tunneled : Ltl.program;
  linear : Linearl.program;
  linear_clean : Linearl.program;
  mach : Machl.program;
  asm : Asm.program;
}

(** The record-shaped view of the pipeline, kept for tests, examples and
    IR printing. Each stage still executes through its registered
    [Pass.t] (and the certificate cache when [cache] is set); the stage
    order mirrors [Pipeline.fig11], which [test_driver] asserts. *)
let compile_artifacts ?(options = default_options) ?(cache = false)
    (p : Clight.program) : artifacts =
  let ctx = context_hash ~options p in
  let exec : type a b. (a, b) Pass.t -> a -> b =
   fun pass x ->
    fst
      (Pass.run_cached ~options ~cache
         ~key:(Cache.key ~seed:ctx ~pass:(Pass.name pass))
         pass x)
  in
  let clight = p in
  let clight_simpl = exec Simpllocals.pass clight in
  let csharpminor = exec Cshmgen.pass clight_simpl in
  let cminor = exec Cminorgen.pass csharpminor in
  let cminorsel = exec Selection.pass cminor in
  let rtl = exec Rtlgen.pass cminorsel in
  let rtl_tailcall = exec Tailcall.pass rtl in
  let rtl_renumber = exec Renumber.pass rtl_tailcall in
  let rtl_constprop = exec Constprop.pass rtl_renumber in
  let rtl_cse = exec Cse.pass rtl_constprop in
  let rtl_deadcode = exec Deadcode.pass rtl_cse in
  let ltl = exec Allocation.pass rtl_deadcode in
  let ltl_tunneled = exec Tunneling.pass ltl in
  let linear = exec Linearize.pass ltl_tunneled in
  let linear_clean = exec Cleanuplabels.pass linear in
  let mach = exec Stacking.pass linear_clean in
  let asm = exec Asmgen.pass mach in
  {
    clight;
    clight_simpl;
    csharpminor;
    cminor;
    cminorsel;
    rtl;
    rtl_tailcall;
    rtl_renumber;
    rtl_constprop;
    rtl_cse;
    rtl_deadcode;
    ltl;
    ltl_tunneled;
    linear;
    linear_clean;
    mach;
    asm;
  }

(** The whole compiler: Clight module in, x86 module out. *)
let compile ?options ?cache (p : Clight.program) : Asm.program =
  (compile_artifacts ?options ?cache p).asm

(* ------------------------------------------------------------------ *)
(* Instrumented, cached, generic compilation of one unit               *)
(* ------------------------------------------------------------------ *)

type pass_stat = {
  st_pass : string;
  st_wall_ns : float;  (** wall-clock spent in this pass (or cache probe) *)
  st_cache : Cache.outcome;
}

let pp_wall ppf ns =
  if ns > 1e9 then Fmt.pf ppf "%8.2f s " (ns /. 1e9)
  else if ns > 1e6 then Fmt.pf ppf "%8.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Fmt.pf ppf "%8.2f us" (ns /. 1e3)
  else Fmt.pf ppf "%8.0f ns" ns

let pp_pass_stat ppf st =
  Fmt.pf ppf "%-14s %a  %a" st.st_pass pp_wall st.st_wall_ns Cache.pp_outcome
    st.st_cache

type compiled = {
  c_asm : Asm.program;
  c_trace : (string * Lang.modu) list;
      (** the source module first, then every pass's output, packed with
          its language witness — the generic per-pass simulation sweep
          walks consecutive pairs of this list *)
  c_stats : pass_stat list;  (** one entry per pass, in pipeline order *)
  c_context : string;  (** [context_hash] of the unit *)
}

(** Compile one unit generically over the registered chain, recording
    per-pass wall-clock, cache outcomes, and the packed stage trace.
    [cache] defaults to on: recompiling an unchanged unit is pure hits. *)
let compile_unit ?(options = default_options) ?(cache = true)
    (p : Clight.program) : compiled =
  let ctx = context_hash ~options p in
  let stats = ref [] in
  let trace = ref [ ("Clight", Lang.Mod (Clight.lang, p)) ] in
  let step : type a b. (a, b) Pass.t -> a -> b =
   fun pass x ->
    let t0 = Unix.gettimeofday () in
    let y, outcome =
      Pass.run_cached ~options ~cache
        ~key:(Cache.key ~seed:ctx ~pass:(Pass.name pass))
        pass x
    in
    let dt_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    stats :=
      { st_pass = Pass.name pass; st_wall_ns = dt_ns; st_cache = outcome }
      :: !stats;
    trace := (Pass.name pass, Pass.pack_tgt pass y) :: !trace;
    y
  in
  let asm = Pipeline.run { Pipeline.step } Pipeline.fig11 p in
  {
    c_asm = asm;
    c_trace = List.rev !trace;
    c_stats = List.rev !stats;
    c_context = ctx;
  }

(** Compile independent units in parallel on [jobs] domains (the
    [Cas_base.Pool] used by the DPOR frontier). [jobs = 1] (the default)
    is the sequential, deterministic fallback; results are identical for
    any [jobs] because units are independent and the cache is
    domain-safe. *)
let compile_all ?options ?cache ?(jobs = 1) (units : Clight.program list) :
    compiled list =
  Pool.run ~jobs
    (List.map (fun u () -> compile_unit ?options ?cache u) units)

(** Hit/miss counters of every pass's certificate store (plus any other
    registered store, e.g. the simulation-verdict store). *)
let cache_stats () = Cache.global_stats ()
