(** Footprints δ = (rs, ws): the sets of memory locations read and written
    by a step (Fig. 4). The paper folds permission-observing operations
    into rs/ws (footnote 4); we do the same.

    Representation: immutable word-level bitsets over [Addr.Interner] ids.
    DPOR's dependence check and the race predictor call [conflict] inside
    an O(transitions²) loop, so conflict/subset/union are O(words) with a
    one-word nonzero summary as the fast path ([summary] bit [i mod 63] is
    set iff word [i] is nonzero, so disjoint summaries prove disjoint
    sets). The simulation checker's switch-point obligations walk the
    bits in place too ([for_all], [fpmatch]). The [Addr.Set] views
    ([rs_set]/[ws_set]/[locs]) serve pretty-printing and the meta-level
    checkers ([Memory.eq_on], [Wd]), which are off the hot path. *)

module Bits = struct
  type t = { summary : int; words : int array }
  (** invariant: no trailing zero word (so structural equality is set
      equality), and [summary] has bit [i mod 63] set iff [words.(i) <> 0] *)

  let bpw = 63
  let empty = { summary = 0; words = [||] }
  let is_empty b = Array.length b.words = 0

  let summarize words =
    let s = ref 0 in
    Array.iteri
      (fun i w -> if w <> 0 then s := !s lor (1 lsl (i mod bpw)))
      words;
    !s

  (** Take ownership of [words], dropping trailing zeros. *)
  let normalize words =
    let n = ref (Array.length words) in
    while !n > 0 && words.(!n - 1) = 0 do
      decr n
    done;
    let words =
      if !n = Array.length words then words else Array.sub words 0 !n
    in
    { summary = summarize words; words }

  let of_ids = function
    | [] -> empty
    | ids ->
      let top = List.fold_left max 0 ids in
      let words = Array.make ((top / bpw) + 1) 0 in
      List.iter
        (fun id -> words.(id / bpw) <- words.(id / bpw) lor (1 lsl (id mod bpw)))
        ids;
      normalize words

  let mem b id =
    let w = id / bpw in
    w < Array.length b.words && b.words.(w) land (1 lsl (id mod bpw)) <> 0

  (* The word loops here and below are top-level functions of the
     arrays and bounds: a local [let rec] capturing them would allocate
     a closure per call. *)
  let rec disjoint_words a b i n =
    i >= n || (a.(i) land b.(i) = 0 && disjoint_words a b (i + 1) n)

  let disjoint a b =
    a.summary land b.summary = 0
    || disjoint_words a.words b.words 0
         (Int.min (Array.length a.words) (Array.length b.words))

  let rec subset_words a b i =
    i >= Array.length a
    || (a.(i) land lnot b.(i) = 0 && subset_words a b (i + 1))

  let subset a b =
    (* normalized: a strictly longer than b has a high set bit outside b *)
    Array.length a.words <= Array.length b.words
    && a.summary land lnot b.summary = 0
    && subset_words a.words b.words 0

  let union a b =
    if is_empty a then b
    else if is_empty b || a == b then a
    else
      let la = Array.length a.words and lb = Array.length b.words in
      let words = Array.make (max la lb) 0 in
      for i = 0 to Array.length words - 1 do
        words.(i) <-
          (if i < la then a.words.(i) else 0)
          lor (if i < lb then b.words.(i) else 0)
      done;
      (* no trailing zero: the top word of the longer input is nonzero *)
      { summary = a.summary lor b.summary; words }

  let inter a b =
    if a.summary land b.summary = 0 then empty
    else
      let n = min (Array.length a.words) (Array.length b.words) in
      normalize (Array.init n (fun i -> a.words.(i) land b.words.(i)))

  let equal a b = a == b || (a.summary = b.summary && a.words = b.words)

  let fold f b acc =
    let acc = ref acc in
    Array.iteri
      (fun i w ->
        if w <> 0 then
          for j = 0 to bpw - 1 do
            if w land (1 lsl j) <> 0 then acc := f ((i * bpw) + j) !acc
          done)
      b.words;
    !acc
end

type t = { rs : Bits.t; ws : Bits.t }

let empty = { rs = Bits.empty; ws = Bits.empty }
let is_empty d = Bits.is_empty d.rs && Bits.is_empty d.ws
let bits_of_addrs addrs = Bits.of_ids (List.map Addr.Interner.id addrs)
let reads addrs = { rs = bits_of_addrs addrs; ws = Bits.empty }
let writes addrs = { rs = Bits.empty; ws = bits_of_addrs addrs }
let read1 a = reads [ a ]
let write1 a = writes [ a ]

let union a b =
  if a == b then a
  else { rs = Bits.union a.rs b.rs; ws = Bits.union a.ws b.ws }

let union_all l = List.fold_left union empty l

(** δ ⊆ δ' pointwise (the [FP.subset] of Fig. 12). *)
let subset a b = Bits.subset a.rs b.rs && Bits.subset a.ws b.ws

(** δ1 ⌢ δ2: conflict, i.e. one's write set meets the other's locations
    (§5). This is the heart of the race predictor: three word-level
    disjointness checks, no allocation. *)
let conflict d1 d2 =
  (not (Bits.disjoint d1.ws d2.ws))
  || (not (Bits.disjoint d1.ws d2.rs))
  || not (Bits.disjoint d2.ws d1.rs)

(** Instrumented conflict (δ1,d1) ⌢ (δ2,d2): racy only if at least one of
    the two accesses is outside an atomic block (§5). *)
let conflict_bits (d1, b1) (d2, b2) = (((not b1) || not b2)) && conflict d1 d2

let equal a b = Bits.equal a.rs b.rs && Bits.equal a.ws b.ws

(* ---- Addr.Set views, for printing and the meta-level checkers ---- *)

let set_of_bits b =
  Bits.fold (fun id acc -> Addr.Set.add (Addr.Interner.addr id) acc) b
    Addr.Set.empty

let rs_set d = set_of_bits d.rs
let ws_set d = set_of_bits d.ws

(** Build from address sets (the meta-checkers' natural currency). *)
let make ~rs ~ws =
  { rs = bits_of_addrs (Addr.Set.elements rs);
    ws = bits_of_addrs (Addr.Set.elements ws) }

(** When used as a set, δ denotes rs ∪ ws (§5). *)
let locs d = set_of_bits (Bits.union d.rs d.ws)

(** Restrict a footprint to a region of interest. *)
let inter_locs d s =
  let sb = bits_of_addrs (Addr.Set.elements s) in
  { rs = Bits.inter d.rs sb; ws = Bits.inter d.ws sb }

(** Membership in the write set without materializing the view. *)
let mem_ws d a =
  match Addr.Interner.find_id a with
  | None -> false
  | Some id -> Bits.mem d.ws id

(* ---- Allocation-free checks for the switch points of Def. 3 ---- *)

let word (b : Bits.t) i =
  if i < Array.length b.Bits.words then b.Bits.words.(i) else 0

let rec for_all_bits p base w j =
  w = 0
  || ((w land 1 = 0 || p (Addr.Interner.addr (base + j)))
     && for_all_bits p base (w lsr 1) (j + 1))

let rec for_all_words p d i n =
  i >= n
  || (for_all_bits p (i * Bits.bpw) (word d.rs i lor word d.ws i) 0
     && for_all_words p d (i + 1) n)

(** Every location of δ (rs ∪ ws) satisfies [p]: [Addr.Set.for_all p
    (locs d)], walking the bits in place instead of building the view.
    The scope checks of Def. 3 and Def. 4 and the linker's confinement
    check run it on every step they inspect. *)
let for_all p d =
  for_all_words p d 0
    (Int.max (Array.length d.rs.Bits.words) (Array.length d.ws.Bits.words))

(** A fixed set of locations (the shared region S of Def. 3), as a
    bitset for [fpmatch]. *)
type region = Bits.t

let region (s : Addr.Set.t) : region = bits_of_addrs (Addr.Set.elements s)

let rec fpmatch_words shared src tgt i =
  i >= Array.length shared
  ||
  let s = shared.(i) in
  word tgt.rs i land s land lnot (word src.rs i lor word src.ws i) = 0
  && word tgt.ws i land s land lnot (word src.ws i) = 0
  && fpmatch_words shared src tgt (i + 1)

(** FPmatch(µ, ∆, δ) of Fig. 8 with φ = id on the region [shared]: the
    target's shared reads are source reads or writes, and its shared
    writes are source writes. Word by word, without allocating. *)
let fpmatch ~(shared : region) ~src ~tgt =
  fpmatch_words shared.Bits.words src tgt 0

let pp ppf d =
  Fmt.pf ppf "(rs=%a, ws=%a)" Addr.Set.pp (rs_set d) Addr.Set.pp (ws_set d)
