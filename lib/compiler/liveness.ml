(** Backward liveness dataflow on RTL, used by the Deadcode and Allocation
    passes.

    The problem is solved over a dense control-flow graph built once per
    function ([cfg]): a node's index is its rank among the code map's
    node ids, which need not be contiguous (RTLgen leaves gaps), and
    successors and predecessors are index arrays. The live-in and
    live-out sets of every node are register bitsets in one flat int
    array. The worklist is a stack with an in-worklist flag, seeded so
    that it pops the highest node first: Renumber numbers nodes in
    depth-first preorder from the entry, so on loop-free code a node's
    successors are solved before it. Liveness has one least fixpoint
    whatever the visiting order, so the sets are those of a map-and-set
    worklist solver. *)

open Cas_langs
module IMap = Rtl.IMap
module ISet = Set.Make (Int)

type cfg = {
  nodes : Rtl.node array;  (** the code map's node ids, ascending *)
  instrs : Rtl.instr array;
      (** the instruction at each index; Deadcode rewrites it in place *)
  succs : int array array;  (** edges to nodes outside the map are dropped *)
  preds : int array array;
  words : int;  (** ints per bitset: one bit per register of [instrs] *)
}

let bits = Sys.int_size

(* The index of node [n] in the ascending [nodes], if it is there. *)
let rank (nodes : Rtl.node array) (n : Rtl.node) : int option =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      if nodes.(mid) = n then Some mid
      else if nodes.(mid) < n then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length nodes)

let cfg (f : Rtl.func) : cfg =
  let bindings = Array.of_list (IMap.bindings f.Rtl.code) in
  let nodes = Array.map fst bindings and instrs = Array.map snd bindings in
  let succs =
    Array.map
      (fun i -> Array.of_list (List.filter_map (rank nodes) (Rtl.successors i)))
      instrs
  in
  let preds = Array.make (Array.length nodes) [] in
  Array.iteri (fun p -> Array.iter (fun s -> preds.(s) <- p :: preds.(s))) succs;
  let max_reg =
    let regs i = Option.to_list (Rtl.defs i) @ Rtl.uses i in
    Array.fold_left (fun m i -> List.fold_left max m (regs i)) (-1) instrs
  in
  {
    nodes;
    instrs;
    succs;
    preds = Array.map Array.of_list preds;
    words = (max_reg + bits) / bits;
  }

(* The live-in set of index [k] is [sets.(k * words ..)], its live-out
   set [sets.((n + k) * words ..)], for [n] nodes. *)
type t = { cfg : cfg; sets : int array }

let out_base t k = (Array.length t.cfg.nodes + k) * t.cfg.words

(** The least solution for the current [g.instrs], computed from empty
    sets. *)
let solve (g : cfg) : t =
  let n = Array.length g.nodes and w = g.words in
  let sets = Array.make (2 * n * w) 0 in
  let ins = Array.make w 0 in
  let stack = Array.init n Fun.id and top = ref n in
  let queued = Array.make n true in
  while !top > 0 do
    decr top;
    let k = stack.(!top) in
    queued.(k) <- false;
    let out = (n + k) * w in
    Array.fill sets out w 0;
    let succs = g.succs.(k) in
    for a = 0 to Array.length succs - 1 do
      let s = succs.(a) * w in
      for j = 0 to w - 1 do
        sets.(out + j) <- sets.(out + j) lor sets.(s + j)
      done
    done;
    Array.blit sets out ins 0 w;
    let i = g.instrs.(k) in
    Option.iter
      (fun d -> ins.(d / bits) <- ins.(d / bits) land lnot (1 lsl (d mod bits)))
      (Rtl.defs i);
    List.iter
      (fun u -> ins.(u / bits) <- ins.(u / bits) lor (1 lsl (u mod bits)))
      (Rtl.uses i);
    let changed = ref false in
    for j = 0 to w - 1 do
      if ins.(j) <> sets.((k * w) + j) then begin
        sets.((k * w) + j) <- ins.(j);
        changed := true
      end
    done;
    if !changed then begin
      let preds = g.preds.(k) in
      for a = 0 to Array.length preds - 1 do
        let p = preds.(a) in
        if not queued.(p) then begin
          queued.(p) <- true;
          stack.(!top) <- p;
          incr top
        end
      done
    end
  done;
  { cfg = g; sets }

let analyze (f : Rtl.func) : t = solve (cfg f)

(** [r] is live on leaving the node of index [k]. *)
let mem_live_out t k r =
  t.sets.(out_base t k + (r / bits)) land (1 lsl (r mod bits)) <> 0

(* [f] on every register of the bitset at [base], in ascending order. *)
let iter_set f t base =
  for j = 0 to t.cfg.words - 1 do
    let x = ref t.sets.(base + j) and r = ref (j * bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !r;
      x := !x lsr 1;
      incr r
    done
  done

(** [f] on every register live on leaving the node of index [k], in
    ascending order. *)
let iter_live_out f t k = iter_set f t (out_base t k)

let set_at base t n =
  let s = ref ISet.empty in
  Option.iter
    (fun k -> iter_set (fun r -> s := ISet.add r !s) t (base t k))
    (rank t.cfg.nodes n);
  !s

(** The live sets at node [n]; empty at a node outside the code map. *)
let live_in = set_at (fun t k -> k * t.cfg.words)

let live_out = set_at out_base
