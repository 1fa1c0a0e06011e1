(** Deadcode: RTL → RTL. Pure instructions whose result is dead (not in
    the liveness live-out set) become no-ops. One more of the optimization
    passes the paper leaves as future work (§8); dead loads disappear, so
    target footprints shrink — the direction FPmatch permits.

    Note the care required: a dead *load* can be removed (reads shrink),
    but a dead *operation on registers* is footprint-free anyway; stores
    and calls are never removed. *)

open Cas_langs
module IMap = Rtl.IMap

let pure_def = function
  | Rtl.Iop (_, d, n) -> Some (d, n)
  | Rtl.Iload (d, _, _, n) -> Some (d, n)
  | _ -> None

(* One sweep exposes new dead code (removing a dead move kills its
   source's last use), so sweep until nothing changes. [Inop succ] keeps
   the edge of the instruction it replaces, so one CFG serves every
   round; each round solves liveness from empty sets, because only the
   least fixpoint of the current code says which results are dead. *)
let tr_func (f : Rtl.func) : Rtl.func =
  let g = Liveness.cfg f in
  let rec sweep removed_any =
    let live = Liveness.solve g in
    let removed = ref false in
    Array.iteri
      (fun k i ->
        match pure_def i with
        | Some (d, succ) when not (Liveness.mem_live_out live k d) ->
          g.Liveness.instrs.(k) <- Rtl.Inop succ;
          removed := true
        | _ -> ())
      g.Liveness.instrs;
    if !removed then sweep true else removed_any
  in
  if not (sweep false) then f
  else
    (* [IMap.map] visits nodes in ascending order, the order of [g]'s
       indices, and keeps the map's shape, which structural equality and
       marshalled digests ([Cache.digest]) see *)
    let k = ref (-1) in
    let code =
      IMap.map
        (fun _ ->
          incr k;
          g.Liveness.instrs.(!k))
        f.Rtl.code
    in
    { f with Rtl.code }

let compile (p : Rtl.program) : Rtl.program =
  { p with Rtl.funcs = List.map tr_func p.Rtl.funcs }

(** The registered first-class pass (see [Pass], [Pipeline]). *)
let pass = Pass.v_opt ~name:"Deadcode" ~lang:Rtl.lang compile
