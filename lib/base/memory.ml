(** The global memory state σ: a finite partial map from addresses to
    values (Fig. 4), organized CompCert-style as a finite map from block
    identifiers to fixed-size arrays of abstract values. Cells are
    word-indexed; we do not model byte splitting (documented simplification
    in DESIGN.md).

    Each block carries a permission tag implementing the client/object
    partition of §7.1.

    The memory maintains an incremental two-lane hash ([hash]) mirroring
    exactly the equivalence classes of the canonical [fingerprint] string:
    each block contributes [mix(block, size, bh)] where [bh] XOR-folds the
    non-[Vundef] cells, and the world hash XOR-folds the blocks. [store]
    and [alloc_block] maintain it in O(1) on top of the map update, which
    is what lets [Cas_conc.World] and [Cas_tso.Tso] produce fixed-width
    state keys without rebuilding an O(state) string per step. Like the
    fingerprint, the hash ignores permissions and treats a cell bound to
    [Vundef] as absent. *)

module IntMap = Map.Make (Int)

type block_info = {
  size : int;  (** number of word cells, offsets 0..size-1 *)
  data : Value.t IntMap.t;  (** missing offsets read as [Vundef] *)
  perm : Perm.t;
  bh1 : int;  (** XOR of [Hashx.mix2_1 ofs (Value.hash v)] over cells *)
  bh2 : int;
}

type t = {
  blocks : block_info IntMap.t;
  h1 : int;  (** XOR of [Hashx.mix3_1 b size bh1] over blocks *)
  h2 : int;
}

type fault =
  | Unmapped of Addr.t
  | Out_of_bounds of Addr.t
  | Perm_mismatch of Addr.t * Perm.t

let empty = { blocks = IntMap.empty; h1 = 0; h2 = 0 }

let block_defined m b = IntMap.mem b m.blocks

(** A cell's term in its block's XOR-fold; [Vundef] contributes nothing,
    matching its absence from the fingerprint. *)
let cell_term1 ofs v = if v = Value.Vundef then 0 else Hashx.mix2_1 ofs (Value.hash v)
let cell_term2 ofs v = if v = Value.Vundef then 0 else Hashx.mix2_2 ofs (Value.hash v)

(** A block's term in the memory's XOR-fold. Permissions are excluded, as
    they are from the fingerprint. *)
let block_term1 b bi = Hashx.mix3_1 b bi.size bi.bh1
let block_term2 b bi = Hashx.mix3_2 b bi.size bi.bh2

let hash m = (m.h1, m.h2)

(** Allocate block [b] with [size] cells; fails if already defined. Used
    both for globals at load time and for stack allocation. *)
let alloc_block m ~block ~size ~perm =
  if block_defined m block then
    invalid_arg (Fmt.str "Memory.alloc_block: block %d already allocated" block)
  else
    let bi = { size; data = IntMap.empty; perm; bh1 = 0; bh2 = 0 } in
    {
      blocks = IntMap.add block bi m.blocks;
      h1 = m.h1 lxor block_term1 block bi;
      h2 = m.h2 lxor block_term2 block bi;
    }

(** Least block of freelist [f] not yet in the memory domain. Because
    memory domains only grow ([forward]), this is deterministic and
    collision-free across the frames of one thread. *)
let fresh_block m f =
  let rec go i =
    let b = Flist.nth f i in
    if block_defined m b then go (i + 1) else b
  in
  go 0

(** Allocate a fresh block from freelist [f]. Returns the new memory, the
    block id, and the allocation footprint (the fresh cells appear in the
    write set, as required by LEffect item (2) of Def. 1). *)
let alloc m f ~size ~perm =
  let b = fresh_block m f in
  let m' = alloc_block m ~block:b ~size ~perm in
  let ws = List.init size (fun i -> Addr.make b i) in
  (m', b, Footprint.writes ws)

let load ?(perm = Perm.Normal) m (a : Addr.t) =
  match IntMap.find_opt a.block m.blocks with
  | None -> Error (Unmapped a)
  | Some bi ->
    if a.ofs < 0 || a.ofs >= bi.size then Error (Out_of_bounds a)
    else if not (Perm.equal bi.perm perm) then Error (Perm_mismatch (a, bi.perm))
    else Ok (Option.value ~default:Value.Vundef (IntMap.find_opt a.ofs bi.data))

let store ?(perm = Perm.Normal) m (a : Addr.t) v =
  match IntMap.find_opt a.block m.blocks with
  | None -> Error (Unmapped a)
  | Some bi ->
    if a.ofs < 0 || a.ofs >= bi.size then Error (Out_of_bounds a)
    else if not (Perm.equal bi.perm perm) then Error (Perm_mismatch (a, bi.perm))
    else
      let old = Option.value ~default:Value.Vundef (IntMap.find_opt a.ofs bi.data) in
      let bi' =
        {
          bi with
          data = IntMap.add a.ofs v bi.data;
          bh1 = bi.bh1 lxor cell_term1 a.ofs old lxor cell_term1 a.ofs v;
          bh2 = bi.bh2 lxor cell_term2 a.ofs old lxor cell_term2 a.ofs v;
        }
      in
      Ok
        {
          blocks = IntMap.add a.block bi' m.blocks;
          h1 = m.h1 lxor block_term1 a.block bi lxor block_term1 a.block bi';
          h2 = m.h2 lxor block_term2 a.block bi lxor block_term2 a.block bi';
        }

(** Load ignoring permissions; used by meta-level checkers only, never by
    language semantics. *)
let peek m (a : Addr.t) =
  match IntMap.find_opt a.block m.blocks with
  | None -> None
  | Some bi ->
    if a.ofs < 0 || a.ofs >= bi.size then None
    else Some (Option.value ~default:Value.Vundef (IntMap.find_opt a.ofs bi.data))

let perm_of_block m b =
  Option.map (fun bi -> bi.perm) (IntMap.find_opt b m.blocks)

let block_size m b = Option.map (fun bi -> bi.size) (IntMap.find_opt b m.blocks)

(** dom(σ) as an address set (finite: blocks × sizes). *)
let dom m =
  IntMap.fold
    (fun b bi acc ->
      let rec add ofs acc =
        if ofs >= bi.size then acc else add (ofs + 1) (Addr.Set.add (Addr.make b ofs) acc)
      in
      add 0 acc)
    m.blocks Addr.Set.empty

let dom_blocks m = IntMap.fold (fun b _ acc -> b :: acc) m.blocks [] |> List.rev

(** σ₁ =S= σ₂ (Fig. 6): agree on every address of [s] — either undefined in
    both or defined in both with equal contents. *)
let eq_on s m1 m2 =
  Addr.Set.for_all
    (fun a ->
      match (peek m1 a, peek m2 a) with
      | None, None -> true
      | Some v1, Some v2 -> Value.equal v1 v2
      | _ -> false)
    s

(** forward(σ, σ'): the domain only grows (Def. 1 item 1). *)
let forward m m' =
  IntMap.for_all
    (fun b bi ->
      match IntMap.find_opt b m'.blocks with
      | Some bi' -> bi'.size >= bi.size
      | None -> false)
    m.blocks

(** LEffect(σ, σ', δ, F) (Fig. 6): cells outside δ.ws are unchanged, and
    newly-allocated cells lie in δ.ws ∩ F.

    Checked per step of every per-pass simulation, so the unchanged-scan
    is restricted to blocks whose [block_info] actually differs between
    [m] and [m'] (one [store] rebuilds exactly one block record; untouched
    blocks stay physically shared and are skipped by the [==] test)
    instead of materializing [dom m] every time. *)
let leffect m m' (d : Footprint.t) f =
  let cell bi ofs = Option.value ~default:Value.Vundef (IntMap.find_opt ofs bi.data) in
  let unchanged_outside_ws =
    IntMap.for_all
      (fun b bi ->
        match IntMap.find_opt b m'.blocks with
        | Some bi' when bi == bi' -> true
        | Some bi' ->
          let rec go ofs =
            ofs >= bi.size
            || (Footprint.mem_ws d (Addr.make b ofs)
               || (ofs < bi'.size && Value.equal (cell bi ofs) (cell bi' ofs)))
               && go (ofs + 1)
          in
          go 0
        | None ->
          (* whole block vanished: tolerable only where ws covers it *)
          let rec go ofs =
            ofs >= bi.size
            || (Footprint.mem_ws d (Addr.make b ofs) && go (ofs + 1))
          in
          go 0)
      m.blocks
  in
  let new_cells_ok =
    IntMap.for_all
      (fun b bi' ->
        let base =
          match IntMap.find_opt b m.blocks with
          | Some bi when bi == bi' -> bi'.size (* nothing new *)
          | Some bi -> bi.size
          | None -> 0
        in
        let rec go ofs =
          ofs >= bi'.size
          || (let a = Addr.make b ofs in
              Footprint.mem_ws d a && Flist.owns_addr f a && go (ofs + 1))
        in
        go base)
      m'.blocks
  in
  unchanged_outside_ws && new_cells_ok

(** closed(S, σ) (Fig. 7): pointers stored at addresses in S point into S. *)
let closed_on s m =
  Addr.Set.for_all
    (fun a ->
      match peek m a with
      | Some (Value.Vptr p) -> Addr.Set.mem p s
      | _ -> true)
    s

let closed m = closed_on (dom m) m

(** Canonical fingerprint for state-space memoization: the collision-free
    string path, used by witness digests and paranoid mode. *)
let fingerprint m =
  let buf = Buffer.create 256 in
  IntMap.iter
    (fun b bi ->
      Buffer.add_string buf (string_of_int b);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int bi.size);
      Buffer.add_char buf '[';
      IntMap.iter
        (fun ofs v ->
          match v with
          | Value.Vundef -> ()
          | v ->
            Buffer.add_string buf (string_of_int ofs);
            Buffer.add_char buf '=';
            Buffer.add_string buf (Value.to_string v);
            Buffer.add_char buf ';')
        bi.data;
      Buffer.add_char buf ']')
    m.blocks;
  Buffer.contents buf

(** Structural equality in the fingerprint's equivalence classes: same
    blocks and sizes, same cell contents with an explicit [Vundef] binding
    equal to an absent one, permissions ignored. The incremental hash
    serves as a fast negative. *)
let equal m1 m2 =
  m1 == m2
  || m1.h1 = m2.h1
     && m1.h2 = m2.h2
     &&
     let data_sub d1 d2 =
       IntMap.for_all
         (fun ofs v ->
           Value.equal v Value.Vundef
           ||
           match IntMap.find_opt ofs d2 with
           | Some v' -> Value.equal v v'
           | None -> false)
         d1
     in
     IntMap.equal
       (fun bi1 bi2 ->
         bi1 == bi2
         || bi1.size = bi2.size
            && data_sub bi1.data bi2.data
            && data_sub bi2.data bi1.data)
       m1.blocks m2.blocks

let pp ppf m =
  IntMap.iter
    (fun b bi ->
      Fmt.pf ppf "@[block %d (%a, %d cells):" b Perm.pp bi.perm bi.size;
      IntMap.iter (fun ofs v -> Fmt.pf ppf " [%d]=%a" ofs Value.pp v) bi.data;
      Fmt.pf ppf "@]@.")
    m.blocks
