(** Engine selection: the single entry point callers use to explore a
    system or enumerate its traces with a chosen engine.

    - [Naive]: bounded-exhaustive BFS / schedule-tree DFS; the oracle.
    - [Dpor]: footprint-guided dynamic partial-order reduction.
    - [Dpor_par]: the same DPOR core with root branches distributed over
      a pool of OCaml 5 domains ([jobs]).

    All three explore the same system, so their world counts and trace
    sets are comparable. DPOR engines additionally require transition
    footprints and scheduler-independent fingerprints (see [Mcsys]);
    a system keyed with the scheduler choice ([Cas_conc.Gsem.system]) is
    only naive-explorable. *)

type t = Naive | Dpor | Dpor_par

let to_string = function
  | Naive -> "naive"
  | Dpor -> "dpor"
  | Dpor_par -> "dpor-par"

let of_string = function
  | "naive" -> Ok Naive
  | "dpor" -> Ok Dpor
  | "dpor-par" -> Ok Dpor_par
  | s -> Error (Fmt.str "unknown engine %S (naive|dpor|dpor-par)" s)

let all = [ Naive; Dpor; Dpor_par ]
let pp ppf e = Fmt.string ppf (to_string e)

let resolve_jobs = function
  | Some j -> max 1 j
  | None -> Frontier.default_jobs ()

(** Reachability with the selected engine; [visit] fires once per
    distinct world (hold no assumption on visit order across engines),
    with the transitions the engine explores out of it — computed once
    and shared with the exploration, so a visitor that needs a world's
    successors (the race predictor) reads them instead of stepping the
    world again. *)
let reachable_trans ?(engine = Naive) ?jobs ?(max_worlds = 200_000) ?recorder
    (sys : 'w Mcsys.t) (initials : 'w list)
    ~(visit : 'w -> 'w Mcsys.trans list -> unit) : Stats.t =
  match engine with
  | Naive -> Naive.reachable ~max_worlds ?recorder sys initials ~visit
  | Dpor | Dpor_par ->
    let cfg = { Dpor.default_cfg with Dpor.max_worlds } in
    let jobs = if engine = Dpor then 1 else resolve_jobs jobs in
    snd
      (Dpor.run ~jobs ~collect:false ~cfg ?recorder sys initials
         ~on_world:visit)

(** [reachable_trans] for a visitor that needs only the world. *)
let reachable ?engine ?jobs ?max_worlds sys initials ~visit =
  reachable_trans ?engine ?jobs ?max_worlds sys initials
    ~visit:(fun w _ -> visit w)

(** Trace enumeration with the selected engine. *)
let traces ?(engine = Naive) ?jobs ?(max_steps = 4000)
    ?(max_paths = 200_000) (sys : 'w Mcsys.t)
    (initials : 'w list) : Trace.result * Stats.t =
  match engine with
  | Naive -> Naive.traces ~max_steps ~max_paths sys initials
  | Dpor | Dpor_par ->
    let cfg =
      { Dpor.default_cfg with Dpor.max_depth = max_steps; max_paths }
    in
    let jobs = if engine = Dpor then 1 else resolve_jobs jobs in
    Dpor.run ~jobs ~collect:true ~cfg sys initials
      ~on_world:(fun _ _ -> ())
