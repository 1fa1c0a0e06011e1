(** Allocation: RTL → LTL (Fig. 11). Graph-coloring register allocation
    over four allocatable registers (AX BX CX DX), with SI/DI reserved as
    reload/spill scratch registers. Spilled pseudo-registers live in
    abstract stack slots; this pass also lowers the calling convention:
    arguments are staged through fresh slots and loaded into the
    conventional registers ([Mreg.arg_regs] prefix), results return in AX.

    CompCert's allocator is translation-validated; ours is direct, and its
    correctness is checked by the same per-pass footprint-preserving
    simulation as every other pass. *)

open Cas_langs
module IMap = Rtl.IMap
module ISet = Set.Make (Int)

let allocatable = Mreg.[ AX; BX; CX; DX ]
let scratch1 = Mreg.SI
let scratch2 = Mreg.DI

type assignment = (int, Mreg.loc) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Interference graph and greedy coloring                               *)
(* ------------------------------------------------------------------ *)

let build_interference (f : Rtl.func) (live : Liveness.t) :
    (int, ISet.t) Hashtbl.t =
  let g : (int, ISet.t) Hashtbl.t = Hashtbl.create 64 in
  let ensure r =
    if not (Hashtbl.mem g r) then Hashtbl.add g r ISet.empty
  in
  let edge a b =
    if a <> b then begin
      ensure a;
      ensure b;
      Hashtbl.replace g a (ISet.add b (Hashtbl.find g a));
      Hashtbl.replace g b (ISet.add a (Hashtbl.find g b))
    end
  in
  List.iter ensure f.Rtl.fparams;
  (* nodes in ascending order and live-out registers in ascending order:
     the coloring below walks [g], so the insertion order is part of the
     output *)
  Array.iteri
    (fun k i ->
      List.iter ensure (Rtl.uses i);
      match Rtl.defs i with
      | None -> ()
      | Some d ->
        ensure d;
        Liveness.iter_live_out (edge d) live k)
    Liveness.(live.cfg.instrs);
  (* parameters are simultaneously live at entry *)
  let rec param_pairs = function
    | [] -> ()
    | p :: rest ->
      List.iter (edge p) rest;
      param_pairs rest
  in
  param_pairs f.Rtl.fparams;
  g

(** Pseudo-registers live across a call: the call sequence writes the
    conventional argument registers and the result register, so such
    values must live in stack slots (caller-save-everything policy). *)
let live_across_calls (live : Liveness.t) : ISet.t =
  let across = ref ISet.empty in
  Array.iteri
    (fun k i ->
      match i with
      | Rtl.Icall (_, _, dst, _) ->
        Liveness.iter_live_out
          (fun r ->
            match dst with
            | Some d when d = r -> ()
            | _ -> across := ISet.add r !across)
          live k
      | _ -> ())
    Liveness.(live.cfg.instrs);
  !across

(** Greedy coloring in decreasing-degree order; uncolorable nodes spill to
    fresh slots. Returns the assignment and the number of slots used. *)
let color ?(forced_slots = ISet.empty) (g : (int, ISet.t) Hashtbl.t) :
    assignment * int =
  let asn : assignment = Hashtbl.create 64 in
  let nodes =
    Hashtbl.fold (fun r adj acc -> (r, ISet.cardinal adj) :: acc) g []
    |> List.sort (fun (_, d1) (_, d2) -> compare d2 d1)
    |> List.map fst
  in
  let next_slot = ref 0 in
  List.iter
    (fun r ->
      let neighbours = try Hashtbl.find g r with Not_found -> ISet.empty in
      let taken =
        ISet.fold
          (fun n acc ->
            match Hashtbl.find_opt asn n with
            | Some (Mreg.R m) -> m :: acc
            | _ -> acc)
          neighbours []
      in
      match
        if ISet.mem r forced_slots then None
        else List.find_opt (fun m -> not (List.mem m taken)) allocatable
      with
      | Some m -> Hashtbl.add asn r (Mreg.R m)
      | None ->
        Hashtbl.add asn r (Mreg.S !next_slot);
        incr next_slot)
    nodes;
  (asn, !next_slot)

(* ------------------------------------------------------------------ *)
(* Code emission                                                        *)
(* ------------------------------------------------------------------ *)

type emitter = {
  mutable next_node : int;
  mutable out : Ltl.instr Ltl.IMap.t;
  mutable next_slot : int;  (** temp slots for call staging *)
}

let fresh_node em =
  let n = em.next_node in
  em.next_node <- n + 1;
  n

let fresh_slot em =
  let s = em.next_slot in
  em.next_slot <- s + 1;
  Mreg.S s

let set em n i = em.out <- Ltl.IMap.add n i em.out

(** Emit a single move src → dst, routing slot-to-slot moves through
    scratch1 (memory-to-memory moves do not exist on x86). Returns the
    entry node; the emitted code continues to [succ]. *)
let emit_move em (src : Mreg.loc) (dst : Mreg.loc) (succ : int) : int =
  match (src, dst) with
  | Mreg.S _, Mreg.S _ ->
    let n2 = fresh_node em in
    set em n2 (Ltl.Lop (Mreg.Gmove (Mreg.R scratch1), dst, succ));
    let n1 = fresh_node em in
    set em n1 (Ltl.Lop (Mreg.Gmove src, Mreg.R scratch1, n2));
    n1
  | _ ->
    let n = fresh_node em in
    set em n (Ltl.Lop (Mreg.Gmove src, dst, succ));
    n

let emit_moves em (moves : (Mreg.loc * Mreg.loc) list) (succ : int) : int =
  List.fold_right (fun (s, d) k -> emit_move em s d k) moves succ

(** Reload a used location into a register: if already a register, use it
    directly; if a slot, load into the given scratch. Returns
    (entry builder, register). *)
let reload em (l : Mreg.loc) (scratch : Mreg.t) (succ : int) :
    int option * Mreg.t =
  match l with
  | Mreg.R r -> (None, r)
  | Mreg.S _ ->
    let n = fresh_node em in
    set em n (Ltl.Lop (Mreg.Gmove l, Mreg.R scratch, succ));
    (Some n, scratch)

let loc_of asn r =
  match Hashtbl.find_opt asn r with
  | Some l -> l
  | None -> Mreg.R scratch1 (* unused register: arbitrary *)

(** Choose the register that will receive the computation of a def, and a
    possible spill move after it. *)
let def_reg em (dl : Mreg.loc) (succ : int) : Mreg.t * int =
  match dl with
  | Mreg.R r -> (r, succ)
  | Mreg.S _ ->
    let n = fresh_node em in
    set em n (Ltl.Lop (Mreg.Gmove (Mreg.R scratch1), dl, succ));
    (scratch1, n)

let conv_regs arity = List.filteri (fun i _ -> i < arity) Mreg.arg_regs

(** Stage call arguments: park each argument location in a fresh slot,
    then load the slots into the conventional registers. *)
let stage_args em (args : Mreg.loc list) (succ : int) : int =
  let tmps = List.map (fun _ -> fresh_slot em) args in
  let conv = conv_regs (List.length args) in
  let load_entry =
    emit_moves em
      (List.map2 (fun t r -> (t, Mreg.R r)) tmps conv)
      succ
  in
  emit_moves em (List.map2 (fun a t -> (a, t)) args tmps) load_entry

let tr_instr em asn (heads : int IMap.t) (n : Rtl.node) (i : Rtl.instr) : unit =
  let head = IMap.find n heads in
  let goto m = IMap.find m heads in
  let chain_to entry = set em head (Ltl.Lnop entry) in
  match i with
  | Rtl.Inop s -> set em head (Ltl.Lnop (goto s))
  | Rtl.Iop (Rtl.Omove r, d, s) ->
    (* move between arbitrary locations *)
    let entry = emit_move em (loc_of asn r) (loc_of asn d) (goto s) in
    chain_to entry
  | Rtl.Iop (op, d, s) -> (
    let dl = loc_of asn d in
    let dr, after = def_reg em dl (goto s) in
    match op with
    | Rtl.Omove _ -> assert false
    | Rtl.Oconst c ->
      let node = fresh_node em in
      set em node (Ltl.Lop (Mreg.Gconst c, Mreg.R dr, after));
      chain_to node
    | Rtl.Oaddrglobal g ->
      let node = fresh_node em in
      set em node (Ltl.Lop (Mreg.Gaddrglobal g, Mreg.R dr, after));
      chain_to node
    | Rtl.Oaddrstack ofs ->
      let node = fresh_node em in
      set em node (Ltl.Lop (Mreg.Gaddrstack ofs, Mreg.R dr, after));
      chain_to node
    | Rtl.Obinop (bop, a, b) ->
      let node = fresh_node em in
      let rb_entry, rb = reload em (loc_of asn b) scratch2 node in
      let pre_b = Option.value ~default:node rb_entry in
      let ra_entry, ra = reload em (loc_of asn a) scratch1 pre_b in
      set em node
        (Ltl.Lop (Mreg.Gbinop (bop, Mreg.R ra, Mreg.R rb), Mreg.R dr, after));
      chain_to (Option.value ~default:pre_b ra_entry)
    | Rtl.Obinop_imm (bop, a, imm) ->
      let node = fresh_node em in
      let ra_entry, ra = reload em (loc_of asn a) scratch1 node in
      set em node
        (Ltl.Lop (Mreg.Gbinop_imm (bop, Mreg.R ra, imm), Mreg.R dr, after));
      chain_to (Option.value ~default:node ra_entry)
    | Rtl.Ounop (uop, a) ->
      let node = fresh_node em in
      let ra_entry, ra = reload em (loc_of asn a) scratch1 node in
      set em node (Ltl.Lop (Mreg.Gunop (uop, Mreg.R ra), Mreg.R dr, after));
      chain_to (Option.value ~default:node ra_entry))
  | Rtl.Iload (d, ofs, r, s) ->
    let dl = loc_of asn d in
    let dr, after = def_reg em dl (goto s) in
    let node = fresh_node em in
    let ra_entry, ra = reload em (loc_of asn r) scratch1 node in
    set em node (Ltl.Lload (Mreg.R dr, ofs, Mreg.R ra, after));
    chain_to (Option.value ~default:node ra_entry)
  | Rtl.Istore (r, ofs, src, s) ->
    let node = fresh_node em in
    let rsrc_entry, rsrc = reload em (loc_of asn src) scratch2 node in
    let pre = Option.value ~default:node rsrc_entry in
    let ra_entry, ra = reload em (loc_of asn r) scratch1 pre in
    set em node (Ltl.Lstore (Mreg.R ra, ofs, Mreg.R rsrc, goto s));
    chain_to (Option.value ~default:pre ra_entry)
  | Rtl.Icall (g, args, dst, s) ->
    let after =
      match dst with
      | None -> goto s
      | Some d -> emit_move em (Mreg.R Mreg.res_reg) (loc_of asn d) (goto s)
    in
    let call = fresh_node em in
    set em call
      (Ltl.Lcall
         ( g,
           List.map (fun r -> Mreg.R r) (conv_regs (List.length args)),
           (match dst with None -> None | Some _ -> Some (Mreg.R Mreg.res_reg)),
           after ));
    let entry = stage_args em (List.map (loc_of asn) args) call in
    chain_to entry
  | Rtl.Itailcall (g, args) ->
    let call = fresh_node em in
    set em call
      (Ltl.Ltailcall (g, List.map (fun r -> Mreg.R r) (conv_regs (List.length args))));
    let entry = stage_args em (List.map (loc_of asn) args) call in
    chain_to entry
  | Rtl.Icond (r, s1, s2) ->
    let node = fresh_node em in
    let ra_entry, ra = reload em (loc_of asn r) scratch1 node in
    set em node (Ltl.Lcond (Mreg.R ra, goto s1, goto s2));
    chain_to (Option.value ~default:node ra_entry)
  | Rtl.Ireturn None -> set em head (Ltl.Lreturn None)
  | Rtl.Ireturn (Some r) ->
    let ret = fresh_node em in
    set em ret (Ltl.Lreturn (Some (Mreg.R Mreg.res_reg)));
    let entry = emit_move em (loc_of asn r) (Mreg.R Mreg.res_reg) ret in
    chain_to entry

(** Color the interference graph [g], with [forced_slots] spilled, and
    emit [f]'s LTL. *)
let emit_func (f : Rtl.func) ~forced_slots g : Ltl.func =
  let asn, nspill = color ~forced_slots g in
  let em = { next_node = 1; out = Ltl.IMap.empty; next_slot = nspill } in
  (* reserve a head node for every RTL node *)
  let heads =
    IMap.fold (fun n _ acc -> IMap.add n (fresh_node em) acc) f.Rtl.code IMap.empty
  in
  IMap.iter (fun n i -> tr_instr em asn heads n i) f.Rtl.code;
  (* entry: params arrive in conventional registers; stage them through
     slots into their assigned locations *)
  let arity = List.length f.Rtl.fparams in
  let conv = conv_regs arity in
  let body_entry = IMap.find f.Rtl.entry heads in
  let tmps = List.map (fun _ -> fresh_slot em) f.Rtl.fparams in
  let into_locs =
    emit_moves em
      (List.map2 (fun t p -> (t, loc_of asn p)) tmps f.Rtl.fparams)
      body_entry
  in
  let entry =
    emit_moves em
      (List.map2 (fun r t -> (Mreg.R r, t)) conv tmps)
      into_locs
  in
  {
    Ltl.fname = f.Rtl.fname;
    fparams = List.map (fun r -> Mreg.R r) conv;
    stacksize = f.Rtl.stacksize;
    entry;
    code = em.out;
  }

let tr_func (f : Rtl.func) : Ltl.func =
  let live = Liveness.analyze f in
  emit_func f ~forced_slots:(live_across_calls live) (build_interference f live)

let compile (p : Rtl.program) : Ltl.program =
  { Ltl.funcs = List.map tr_func p.Rtl.funcs; globals = p.Rtl.globals }

(** The registered first-class pass (see [Pass], [Pipeline]). *)
let pass = Pass.v ~name:"Allocation" ~src:Rtl.lang ~tgt:Ltl.lang compile
