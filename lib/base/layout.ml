(** Memory layout conversion (§7.2, "Converting memory layout").

    CompCert's memory model numbers allocations consecutively with a
    single [nextblock]; our concurrent model reserves a strided freelist
    per thread so that threads' allocations commute. The paper bridges
    the two with a bijection between memories under the two models, which
    lets CASCompCert reuse CompCert's libraries and proofs unchanged.

    This module constructs that bijection for a single thread's view —
    global blocks map to themselves, the thread's freelist blocks map, in
    order, to the consecutive numbers that CompCert would have assigned —
    and converts memories and values across it. The test-suite validates
    the semantic-equivalence properties the paper proves: loads, stores
    and allocations commute with the conversion. *)

module IntMap = Map.Make (Int)

type t = {
  fwd : int IntMap.t;  (** our block -> CompCert block *)
  bwd : int IntMap.t;
  globals : int;
  flist : Flist.t;
}

(** Bijection for one thread: globals are fixed, and the [i]-th block of
    the thread's freelist corresponds to CompCert block [globals + i].
    [depth] bounds how many freelist blocks are mapped (extend on
    demand). *)
let build ~globals (fl : Flist.t) ~depth : t =
  let fwd = ref IntMap.empty and bwd = ref IntMap.empty in
  for b = 0 to globals - 1 do
    fwd := IntMap.add b b !fwd;
    bwd := IntMap.add b b !bwd
  done;
  for i = 0 to depth - 1 do
    let ours = Flist.nth fl i in
    let theirs = globals + i in
    fwd := IntMap.add ours theirs !fwd;
    bwd := IntMap.add theirs ours !bwd
  done;
  { fwd = !fwd; bwd = !bwd; globals; flist = fl }

let to_compcert_block t b = IntMap.find_opt b t.fwd
let of_compcert_block t b = IntMap.find_opt b t.bwd

let map_addr dir (a : Addr.t) : Addr.t option =
  Option.map (fun b -> Addr.make b a.Addr.ofs) (dir a.Addr.block)

let map_value dir (v : Value.t) : Value.t option =
  match v with
  | Value.Vundef | Value.Vint _ -> Some v
  | Value.Vptr a -> Option.map (fun a -> Value.Vptr a) (map_addr dir a)

(** Convert a memory across the bijection; blocks outside the bijection
    (other threads' allocations) are dropped — the conversion expresses a
    *thread-local* view, exactly the setting in which CompCert proofs are
    reused. *)
let convert_mem dir (m : Memory.t) : Memory.t =
  List.fold_left
    (fun acc b ->
      match dir b with
      | None -> acc
      | Some b' ->
        let size = Option.value ~default:0 (Memory.block_size m b) in
        let perm =
          Option.value ~default:Perm.Normal (Memory.perm_of_block m b)
        in
        let acc = Memory.alloc_block acc ~block:b' ~size ~perm in
        let rec copy acc ofs =
          if ofs >= size then acc
          else
            let acc =
              match Memory.peek m (Addr.make b ofs) with
              | Some v when not (Value.equal v Value.Vundef) -> (
                let v' =
                  Option.value ~default:Value.Vundef (map_value dir v)
                in
                match Memory.store ~perm acc (Addr.make b' ofs) v' with
                | Ok acc -> acc
                | Error _ -> acc)
              | _ -> acc
            in
            copy acc (ofs + 1)
        in
        copy acc 0)
    Memory.empty (Memory.dom_blocks m)

let to_compcert t m = convert_mem (to_compcert_block t) m
let of_compcert t m = convert_mem (of_compcert_block t) m

(** In the CompCert view, allocation takes the next consecutive block;
    check that converting our freelist allocation yields exactly it. This
    is the per-operation commutation the equivalence proof rests on. *)
let alloc_commutes t (m : Memory.t) ~size : bool =
  let m_ours, b_ours, _ = Memory.alloc m t.flist ~size ~perm:Perm.Normal in
  let cc = to_compcert t m in
  (* CompCert nextblock = number of blocks in the converted view *)
  let nextblock =
    List.fold_left (fun acc b -> max acc (b + 1)) 0 (Memory.dom_blocks cc)
  in
  match to_compcert_block t b_ours with
  | None -> false
  | Some b_cc ->
    b_cc = nextblock
    && Memory.equal (to_compcert t m_ours)
         (Memory.alloc_block cc ~block:nextblock ~size ~perm:Perm.Normal)
