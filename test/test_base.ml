(** Unit and property tests for the base layer: addresses, values,
    the collision audit, footprints, freelists, permissions, memory,
    global environments, and the §7.2 layout conversion. *)

open Cas_base

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let a b o = Addr.make b o

(* ------------------------------------------------------------------ *)
(* Addr                                                                *)
(* ------------------------------------------------------------------ *)

let test_addr_compare () =
  check tbool "equal addrs" true (Addr.equal (a 1 2) (a 1 2));
  check tbool "block dominates" true (Addr.compare (a 1 9) (a 2 0) < 0);
  check tbool "offset breaks ties" true (Addr.compare (a 1 1) (a 1 2) < 0);
  check tbool "reflexive" true (Addr.compare (a 3 4) (a 3 4) = 0)

let test_addr_set () =
  let s = Addr.Set.of_list [ a 0 0; a 0 1; a 0 0 ] in
  check tint "dedup" 2 (Addr.Set.cardinal s);
  check tbool "mem" true (Addr.Set.mem (a 0 1) s)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_truth () =
  check tbool "int 0 false" false (Value.is_true (Value.Vint 0));
  check tbool "int 1 true" true (Value.is_true (Value.Vint 1));
  check tbool "pointer true" true (Value.is_true (Value.Vptr (a 1 0)));
  check tbool "undef false" false (Value.is_true Value.Vundef)

let test_value_addrs () =
  check tint "ptr has addr" 1 (List.length (Value.addrs (Value.Vptr (a 1 0))));
  check tint "int no addr" 0 (List.length (Value.addrs (Value.Vint 3)))

(* ------------------------------------------------------------------ *)
(* Collision audit                                                     *)
(* ------------------------------------------------------------------ *)

(* A language whose cores all stream the same hash but print apart: an
   audit fed two of its cores must report the collision, and only it. *)
let test_audit_reports_collision () =
  let lang : (unit, int) Lang.t =
    {
      Lang.name = "Mock";
      init_core = (fun ~genv:_ () ~entry:_ ~args:_ -> None);
      step = (fun _ _ _ -> []);
      after_external = (fun _ _ -> None);
      hash_core = (fun st _ -> Hashx.int st 0);
      hash_fundef = (fun _ () _ -> ());
      pp_core = Fmt.int;
      globals_of = (fun () -> []);
      defs_of = (fun () -> []);
    }
  in
  let collisions = Alcotest.(list (pair string string)) in
  let audit = Lang.audit () in
  Lang.audit_core audit lang 1;
  Lang.audit_core audit lang 1;
  check collisions "same core twice" [] (Lang.audit_collisions audit);
  Lang.audit_core audit lang 2;
  check collisions "one collision"
    [ ("Mock|1", "Mock|2") ]
    (Lang.audit_collisions audit);
  check collisions "a fresh audit saw nothing" []
    (Lang.audit_collisions (Lang.audit ()))

(* ------------------------------------------------------------------ *)
(* Streaming a value                                                   *)
(* ------------------------------------------------------------------ *)

let value_key v =
  let st = Hashx.create () in
  Hashx.value st v;
  Hashx.key_of (Hashx.out st)

(* Every bit of the marshalled bytes reaches the lanes: a string whose
   bytes fill several seven-byte steps and a tail, changed in any one
   bit, streams apart from the original. *)
let test_value_every_bit () =
  let s = String.init 40 (fun i -> Char.chr (i * 37 land 0xff)) in
  let k = value_key s in
  for i = 0 to String.length s - 1 do
    for b = 0 to 7 do
      let s' =
        String.mapi
          (fun j c ->
            if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c)
          s
      in
      if value_key s' = k then Alcotest.failf "bit %d of byte %d is lost" b i
    done
  done

(* The stream depends on the value, not on how its parts share memory;
   a value larger than the marshalling buffer streams whole. *)
let test_value_sharing_and_size () =
  let x = String.make 3 'x' in
  check tbool "sharing" true
    (value_key (x, x) = value_key (x, String.make 3 'x'));
  let big = String.make 10_000 'b' in
  let big' = String.mapi (fun i c -> if i = 9_999 then 'c' else c) big in
  check tbool "a large value streams alike" true
    (value_key big = value_key (String.make 10_000 'b'));
  check tbool "its last byte counts" false (value_key big = value_key big')

(* ------------------------------------------------------------------ *)
(* Footprint                                                           *)
(* ------------------------------------------------------------------ *)

let fp_r l = Footprint.reads l
let fp_w l = Footprint.writes l

let test_fp_conflict () =
  let open Footprint in
  check tbool "r/r no conflict" false (conflict (fp_r [ a 0 0 ]) (fp_r [ a 0 0 ]));
  check tbool "w/r conflict" true (conflict (fp_w [ a 0 0 ]) (fp_r [ a 0 0 ]));
  check tbool "w/w conflict" true (conflict (fp_w [ a 0 0 ]) (fp_w [ a 0 0 ]));
  check tbool "disjoint" false (conflict (fp_w [ a 0 0 ]) (fp_w [ a 0 1 ]))

let test_fp_conflict_bits () =
  let open Footprint in
  let w = fp_w [ a 0 0 ] in
  check tbool "both atomic: no race" false (conflict_bits (w, true) (w, true));
  check tbool "one atomic: race" true (conflict_bits (w, true) (w, false));
  check tbool "none atomic: race" true (conflict_bits (w, false) (w, false))

let test_fp_subset_union () =
  let open Footprint in
  let f1 = fp_r [ a 0 0 ] and f2 = union (fp_r [ a 0 0 ]) (fp_w [ a 0 1 ]) in
  check tbool "subset" true (subset f1 f2);
  check tbool "not subset" false (subset f2 f1);
  check tbool "union idempotent" true (equal (union f1 f1) f1)

(* DPOR's dependence checks call [conflict] and [subset] per pair of
   transitions, so their word loops must not allocate. Every id below
   sits in word 0 or 1, so all summaries meet and every loop runs. *)
let test_fp_no_alloc () =
  let open Footprint in
  let fp rs ws = { rs = Bits.of_ids rs; ws = Bits.of_ids ws } in
  let d1 = fp [ 0; 63 ] [ 1; 64 ] and d2 = fp [ 2; 65 ] [ 3; 66 ] in
  let d12 = union d1 d2 in
  check tbool "conflict walks every word" false (conflict d1 d2);
  check tbool "subset walks every word" true (subset d1 d12);
  let calls = 10_000 in
  let words_per_call name f =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    let w = (Gc.minor_words () -. before) /. float_of_int calls in
    check tbool (Fmt.str "%s: %.2f minor words per call" name w) true (w < 1.)
  in
  words_per_call "conflict" (fun () -> conflict d1 d2);
  words_per_call "subset" (fun () -> subset d1 d12)

(* qcheck generators *)
let gen_addr =
  QCheck.Gen.(map2 (fun b o -> Addr.make b o) (int_bound 5) (int_bound 5))

let gen_fp =
  QCheck.Gen.(
    map2
      (fun rs ws ->
        Footprint.make ~rs:(Addr.Set.of_list rs) ~ws:(Addr.Set.of_list ws))
      (list_size (int_bound 6) gen_addr)
      (list_size (int_bound 6) gen_addr))

let arb_fp = QCheck.make ~print:(Fmt.str "%a" Footprint.pp) gen_fp

let prop_conflict_symmetric =
  QCheck.Test.make ~name:"footprint conflict is symmetric" ~count:500
    (QCheck.pair arb_fp arb_fp) (fun (f1, f2) ->
      Footprint.conflict f1 f2 = Footprint.conflict f2 f1)

let prop_union_monotone =
  QCheck.Test.make ~name:"union is an upper bound" ~count:500
    (QCheck.pair arb_fp arb_fp) (fun (f1, f2) ->
      let u = Footprint.union f1 f2 in
      Footprint.subset f1 u && Footprint.subset f2 u)

let prop_conflict_monotone =
  QCheck.Test.make ~name:"conflict is monotone in footprints" ~count:500
    (QCheck.triple arb_fp arb_fp arb_fp) (fun (f1, f2, f3) ->
      (* if f1 conflicts with f2 then f1 conflicts with f2 ∪ f3 *)
      (not (Footprint.conflict f1 f2))
      || Footprint.conflict f1 (Footprint.union f2 f3))

(* ------------------------------------------------------------------ *)
(* Bitset footprints vs. the reference Addr.Set implementation         *)
(* ------------------------------------------------------------------ *)

(* The pre-interning footprint representation over plain address sets,
   kept verbatim as an executable oracle for the word-level bitsets. *)
module Fpref = struct
  type t = { rs : Addr.Set.t; ws : Addr.Set.t }

  let locs d = Addr.Set.union d.rs d.ws

  let conflict d1 d2 =
    (not (Addr.Set.is_empty (Addr.Set.inter d1.ws (locs d2))))
    || not (Addr.Set.is_empty (Addr.Set.inter d2.ws (locs d1)))

  let subset a b = Addr.Set.subset a.rs b.rs && Addr.Set.subset a.ws b.ws

  let inter_locs d s =
    { rs = Addr.Set.inter d.rs s; ws = Addr.Set.inter d.ws s }
end

(* wide enough that interner ids cross the 63-bit word boundary *)
let gen_addr_wide =
  QCheck.Gen.(map2 (fun b o -> Addr.make b o) (int_bound 11) (int_bound 11))

let gen_fp_pair =
  QCheck.Gen.(
    map2
      (fun rs ws ->
        let rs = Addr.Set.of_list rs and ws = Addr.Set.of_list ws in
        (Footprint.make ~rs ~ws, { Fpref.rs; ws }))
      (list_size (int_bound 10) gen_addr_wide)
      (list_size (int_bound 10) gen_addr_wide))

let arb_fp_pair =
  QCheck.make ~print:(fun (fp, _) -> Fmt.str "%a" Footprint.pp fp) gen_fp_pair

let prop_fp_views_roundtrip =
  QCheck.Test.make ~name:"bitset rs/ws views reproduce the input sets"
    ~count:500 arb_fp_pair (fun (fp, r) ->
      Addr.Set.equal (Footprint.rs_set fp) r.Fpref.rs
      && Addr.Set.equal (Footprint.ws_set fp) r.Fpref.ws)

let prop_fp_conflict_matches_oracle =
  QCheck.Test.make ~name:"bitset conflict matches the Addr.Set oracle"
    ~count:1000
    (QCheck.pair arb_fp_pair arb_fp_pair)
    (fun ((f1, r1), (f2, r2)) ->
      Footprint.conflict f1 f2 = Fpref.conflict r1 r2)

let prop_fp_subset_matches_oracle =
  QCheck.Test.make ~name:"bitset subset matches the Addr.Set oracle"
    ~count:1000
    (QCheck.pair arb_fp_pair arb_fp_pair)
    (fun ((f1, r1), (f2, r2)) -> Footprint.subset f1 f2 = Fpref.subset r1 r2)

let prop_fp_locs_matches_oracle =
  QCheck.Test.make ~name:"bitset locs matches the Addr.Set oracle" ~count:500
    arb_fp_pair (fun (fp, r) ->
      Addr.Set.equal (Footprint.locs fp) (Fpref.locs r))

let prop_fp_inter_locs_matches_oracle =
  QCheck.Test.make ~name:"bitset inter_locs matches the Addr.Set oracle"
    ~count:500
    (QCheck.pair arb_fp_pair QCheck.(make Gen.(list_size (int_bound 10) gen_addr_wide)))
    (fun ((fp, r), s) ->
      let s = Addr.Set.of_list s in
      let fi = Footprint.inter_locs fp s and ri = Fpref.inter_locs r s in
      Addr.Set.equal (Footprint.rs_set fi) ri.Fpref.rs
      && Addr.Set.equal (Footprint.ws_set fi) ri.Fpref.ws)

(* The switch-point obligations of Def. 3 over [Addr.Set] views, as the
   simulation checker computed them before [Footprint.for_all] and
   [Footprint.fpmatch] walked the bits: the scope check ∆ ⊆ F ∪ S and
   FPmatch with φ = id on S (Fig. 8). *)
let fpmatch_oracle shared (delta : Fpref.t) (d : Fpref.t) =
  Addr.Set.subset
    (Addr.Set.inter d.Fpref.rs shared)
    (Addr.Set.union delta.Fpref.rs delta.Fpref.ws)
  && Addr.Set.subset (Addr.Set.inter d.Fpref.ws shared) delta.Fpref.ws

let prop_fp_switch_checks_match_oracle =
  QCheck.Test.make
    ~name:"bitset scope and FPmatch checks match the Addr.Set oracle"
    ~count:1000
    QCheck.(
      quad arb_fp_pair arb_fp_pair
        (make Gen.(list_size (int_bound 20) gen_addr_wide))
        (pair (int_bound 11) (int_range 1 3)))
    (fun ((f1, r1), (f2, r2), shared, (offset, stride)) ->
      let shared = Addr.Set.of_list shared in
      let fl = Flist.make ~offset ~stride in
      let in_scope a = Addr.Set.mem a shared || Flist.owns_addr fl a in
      Footprint.for_all in_scope f1 = Addr.Set.for_all in_scope (Fpref.locs r1)
      && Footprint.fpmatch ~shared:(Footprint.region shared) ~src:f1 ~tgt:f2
         = fpmatch_oracle shared r1 r2)

(* ------------------------------------------------------------------ *)
(* Flist                                                               *)
(* ------------------------------------------------------------------ *)

let test_flist_partition_disjoint () =
  let fls = Flist.partition ~globals:3 4 in
  check tint "four freelists" 4 (List.length fls);
  List.iteri
    (fun i f1 ->
      List.iteri
        (fun j f2 ->
          if i <> j then
            check tbool (Fmt.str "disjoint %d %d" i j) true (Flist.disjoint f1 f2))
        fls)
    fls

let test_flist_no_globals () =
  let fls = Flist.partition ~globals:3 2 in
  List.iter
    (fun fl ->
      check tbool "globals not owned" false
        (Flist.mem fl 0 || Flist.mem fl 1 || Flist.mem fl 2))
    fls

let test_flist_nth_mem () =
  let fl = Flist.make ~offset:5 ~stride:3 in
  check tbool "nth in flist" true (Flist.mem fl (Flist.nth fl 7));
  check tbool "off stride" false (Flist.mem fl 6)

let prop_flist_nth_mem =
  QCheck.Test.make ~name:"flist nth is a member" ~count:300
    QCheck.(triple (int_bound 10) (int_range 1 8) (int_bound 50))
    (fun (off, stride, i) ->
      let fl = Flist.make ~offset:off ~stride in
      Flist.mem fl (Flist.nth fl i))

let prop_flist_partition_disjoint =
  QCheck.Test.make ~name:"partitioned freelists are pairwise disjoint"
    ~count:100
    QCheck.(pair (int_bound 5) (int_range 2 6))
    (fun (globals, n) ->
      let fls = Flist.partition ~globals n in
      List.for_all
        (fun f1 ->
          List.for_all
            (fun f2 -> f1 = f2 || Flist.disjoint f1 f2)
            fls)
        fls)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let mem_with_block ?(perm = Perm.Normal) ?(size = 4) b =
  Memory.alloc_block Memory.empty ~block:b ~size ~perm

let test_mem_load_store () =
  let m = mem_with_block 0 in
  (match Memory.store m (a 0 2) (Value.Vint 42) with
  | Ok m' -> (
    match Memory.load m' (a 0 2) with
    | Ok v -> check tbool "roundtrip" true (Value.equal v (Value.Vint 42))
    | Error _ -> Alcotest.fail "load failed")
  | Error _ -> Alcotest.fail "store failed");
  (match Memory.load m (a 0 0) with
  | Ok v -> check tbool "fresh reads undef" true (Value.equal v Value.Vundef)
  | Error _ -> Alcotest.fail "load of fresh failed")

let test_mem_faults () =
  let m = mem_with_block 0 in
  check tbool "unmapped" true
    (match Memory.load m (a 9 0) with Error (Memory.Unmapped _) -> true | _ -> false);
  check tbool "oob" true
    (match Memory.load m (a 0 99) with
    | Error (Memory.Out_of_bounds _) -> true
    | _ -> false);
  let mo = mem_with_block ~perm:Perm.Object 1 in
  check tbool "perm mismatch on normal access" true
    (match Memory.load mo (a 1 0) with
    | Error (Memory.Perm_mismatch _) -> true
    | _ -> false);
  check tbool "object access ok" true
    (match Memory.load ~perm:Perm.Object mo (a 1 0) with Ok _ -> true | _ -> false)

let test_mem_alloc_least_free () =
  let fl = Flist.make ~offset:2 ~stride:2 in
  let m = mem_with_block 0 in
  let m1, b1, fp = Memory.alloc m fl ~size:1 ~perm:Perm.Normal in
  check tint "first block" 2 b1;
  check tbool "alloc fp is write" true
    (Footprint.mem_ws fp (a 2 0));
  let _, b2, _ = Memory.alloc m1 fl ~size:1 ~perm:Perm.Normal in
  check tint "second block skips" 4 b2

let test_mem_forward_leffect () =
  let fl = Flist.make ~offset:1 ~stride:1 in
  let m = mem_with_block 0 in
  let m', _, fp = Memory.alloc m fl ~size:2 ~perm:Perm.Normal in
  check tbool "forward" true (Memory.forward m m');
  check tbool "not backward" false (Memory.forward m' m);
  check tbool "leffect of alloc" true (Memory.leffect m m' fp fl);
  (* a write outside the declared footprint violates LEffect *)
  match Memory.store m' (a 0 0) (Value.Vint 7) with
  | Ok m'' ->
    check tbool "leffect catches stray write" false
      (Memory.leffect m m'' fp fl)
  | Error _ -> Alcotest.fail "store failed"

let test_mem_eq_on () =
  let m1 = mem_with_block 0 in
  let m2 =
    match Memory.store m1 (a 0 0) (Value.Vint 1) with Ok m -> m | Error _ -> m1
  in
  check tbool "differ on written cell" false
    (Memory.eq_on (Addr.Set.singleton (a 0 0)) m1 m2);
  check tbool "agree elsewhere" true
    (Memory.eq_on (Addr.Set.singleton (a 0 1)) m1 m2)

let test_mem_closed () =
  let m = mem_with_block 0 in
  let m =
    match Memory.store m (a 0 0) (Value.Vptr (a 0 3)) with
    | Ok m -> m
    | Error _ -> m
  in
  check tbool "self-contained pointer" true (Memory.closed m);
  let m2 =
    match Memory.store m (a 0 1) (Value.Vptr (a 7 0)) with
    | Ok m -> m
    | Error _ -> m
  in
  check tbool "wild pointer detected" false (Memory.closed m2)

let test_mem_fingerprint () =
  let m1 = mem_with_block 0 in
  let m2 = mem_with_block 0 in
  check tbool "equal memories, equal fingerprints" true
    (Memory.fingerprint m1 = Memory.fingerprint m2);
  let m3 =
    match Memory.store m1 (a 0 0) (Value.Vint 5) with Ok m -> m | Error _ -> m1
  in
  check tbool "store changes fingerprint" false
    (Memory.fingerprint m1 = Memory.fingerprint m3)

(* ------------------------------------------------------------------ *)
(* Memory properties: equal / fingerprint / hash / leffect             *)
(* ------------------------------------------------------------------ *)

type mem_op = Oalloc of int * int | Ostore of int * int * Value.t

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Value.Vint n) (int_bound 3));
        (2, return Value.Vundef);
        (1, map2 (fun b o -> Value.Vptr (Addr.make b o)) (int_bound 3) (int_bound 3));
      ])

let gen_mem_op =
  QCheck.Gen.(
    frequency
      [
        (1, map2 (fun b s -> Oalloc (b, s + 1)) (int_bound 3) (int_bound 4));
        ( 4,
          map3
            (fun b o v -> Ostore (b, o, v))
            (int_bound 3) (int_bound 4) gen_value );
      ])

let apply_mem_ops ops =
  List.fold_left
    (fun m op ->
      match op with
      | Oalloc (b, s) ->
        if Memory.block_defined m b then m
        else Memory.alloc_block m ~block:b ~size:s ~perm:Perm.Normal
      | Ostore (b, o, v) -> (
        match Memory.store m (Addr.make b o) v with
        | Ok m' -> m'
        | Error _ -> m))
    Memory.empty ops

let print_mem_ops ops =
  String.concat ";"
    (List.map
       (function
         | Oalloc (b, s) -> Fmt.str "alloc %d/%d" b s
         | Ostore (b, o, v) -> Fmt.str "[%d,%d]:=%a" b o Value.pp v)
       ops)

(* two memories built from a shared prefix and divergent suffixes: the
   small op space makes both the equal and the unequal case frequent,
   and Vundef stores exercise the explicit-binding-vs-absent class *)
let gen_mem_pair =
  QCheck.Gen.(
    map3
      (fun base s1 s2 ->
        (base, s1, s2, apply_mem_ops (base @ s1), apply_mem_ops (base @ s2)))
      (list_size (int_bound 10) gen_mem_op)
      (list_size (int_bound 4) gen_mem_op)
      (list_size (int_bound 4) gen_mem_op))

let arb_mem_pair =
  QCheck.make
    ~print:(fun (b, s1, s2, _, _) ->
      Fmt.str "base=%s suf1=%s suf2=%s" (print_mem_ops b) (print_mem_ops s1)
        (print_mem_ops s2))
    gen_mem_pair

let prop_mem_equal_iff_fingerprint =
  QCheck.Test.make
    ~name:"Memory.equal m1 m2 iff fingerprint m1 = fingerprint m2"
    ~count:1000 arb_mem_pair (fun (_, _, _, m1, m2) ->
      let eq = Memory.equal m1 m2 in
      eq = (Memory.fingerprint m1 = Memory.fingerprint m2)
      && ((not eq) || Memory.hash m1 = Memory.hash m2))

(* the seed's address-set leffect, as the oracle for the block-restricted
   scan ([ws] passed as a set; the new one reads the bitset directly) *)
let leffect_ref m m' ws f =
  let outside_ws_unchanged =
    Addr.Set.for_all
      (fun a ->
        Addr.Set.mem a ws
        ||
        match (Memory.peek m a, Memory.peek m' a) with
        | Some v, Some v' -> Value.equal v v'
        | _ -> false)
      (Memory.dom m)
  in
  let new_cells = Addr.Set.diff (Memory.dom m') (Memory.dom m) in
  outside_ws_unchanged
  && Addr.Set.for_all
       (fun a -> Addr.Set.mem a ws && Flist.owns_addr f a)
       new_cells

let prop_leffect_matches_oracle =
  QCheck.Test.make
    ~name:"block-restricted leffect matches the address-set oracle"
    ~count:1000
    (QCheck.pair arb_mem_pair
       QCheck.(make Gen.(list_size (int_bound 6) gen_addr_wide)))
    (fun ((_, _, _, m, m'), ws_l) ->
      let fl = Flist.make ~offset:1 ~stride:2 in
      let ws = Addr.Set.of_list ws_l in
      let d = Footprint.make ~rs:Addr.Set.empty ~ws in
      Memory.leffect m m' d fl = leffect_ref m m' ws fl)

let prop_leffect_covers_stores =
  QCheck.Test.make
    ~name:"leffect holds when ws covers exactly the stores" ~count:500
    (QCheck.make
       ~print:(fun (b, s) ->
         Fmt.str "base=%s suf=%s" (print_mem_ops b) (print_mem_ops s))
       QCheck.Gen.(
         pair
           (list_size (int_bound 8) gen_mem_op)
           (list_size (int_bound 4) gen_mem_op)))
    (fun (base, suf) ->
      let m = apply_mem_ops base in
      (* suffix of pure stores into already-allocated blocks *)
      let stores =
        List.filter_map
          (function
            | Oalloc _ -> None
            | Ostore (b, o, v) -> (
              match Memory.store m (Addr.make b o) v with
              | Ok _ -> Some (Addr.make b o, v)
              | Error _ -> None))
          suf
      in
      let m' =
        List.fold_left
          (fun m (a, v) -> Result.get_ok (Memory.store m a v))
          m stores
      in
      let ws = Addr.Set.of_list (List.map fst stores) in
      let d = Footprint.make ~rs:Addr.Set.empty ~ws in
      let fl = Flist.make ~offset:0 ~stride:1 in
      Memory.leffect m m' d fl
      = leffect_ref m m' ws fl
      && Memory.leffect m m' d fl)

(* ------------------------------------------------------------------ *)
(* Genv                                                                *)
(* ------------------------------------------------------------------ *)

let test_genv_link () =
  let g1 = [ Genv.gvar ~init:[ Genv.Iint 1 ] "x" 1 ] in
  let g2 = [ Genv.gvar "y" 2 ] in
  match Genv.link [ g1; g2 ] with
  | Error _ -> Alcotest.fail "link failed"
  | Ok ge ->
    check tint "two globals" 2 (Genv.block_count ge);
    check tbool "x resolvable" true (Genv.find_block ge "x" <> None);
    check tbool "z not resolvable" true (Genv.find_block ge "z" = None)

let test_genv_link_compatible_dup () =
  let g = [ Genv.gvar ~init:[ Genv.Iint 1 ] "x" 1 ] in
  match Genv.link [ g; g ] with
  | Ok ge -> check tint "deduplicated" 1 (Genv.block_count ge)
  | Error _ -> Alcotest.fail "compatible duplicates must link"

let test_genv_link_incompatible () =
  let g1 = [ Genv.gvar ~init:[ Genv.Iint 1 ] "x" 1 ] in
  let g2 = [ Genv.gvar ~init:[ Genv.Iint 2 ] "x" 1 ] in
  match Genv.link [ g1; g2 ] with
  | Error "x" -> ()
  | Error n -> Alcotest.failf "wrong culprit %s" n
  | Ok _ -> Alcotest.fail "incompatible duplicates must not link"

let test_genv_init_memory () =
  let g =
    [
      Genv.gvar ~init:[ Genv.Iint 7 ] "x" 1;
      Genv.gvar ~init:[ Genv.Iaddr "x" ] "p" 1;
    ]
  in
  match Genv.link [ g ] with
  | Error _ -> Alcotest.fail "link failed"
  | Ok ge -> (
    let m = Genv.init_memory ge in
    check tbool "closed" true (Memory.closed m);
    let bx = Option.get (Genv.find_block ge "x") in
    let bp = Option.get (Genv.find_block ge "p") in
    match (Memory.peek m (a bx 0), Memory.peek m (a bp 0)) with
    | Some (Value.Vint 7), Some (Value.Vptr pa) ->
      check tbool "pointer init resolves" true (Addr.equal pa (a bx 0))
    | _ -> Alcotest.fail "bad initialization")

(* ------------------------------------------------------------------ *)
(* Layout (§7.2)                                                       *)
(* ------------------------------------------------------------------ *)

let test_layout_roundtrip () =
  let fl = Flist.make ~offset:2 ~stride:3 in
  let t = Layout.build ~globals:2 fl ~depth:8 in
  let m = mem_with_block ~size:2 0 in
  let m = Memory.alloc_block m ~block:1 ~size:1 ~perm:Perm.Object in
  let m, b, _ = Memory.alloc m fl ~size:2 ~perm:Perm.Normal in
  let m =
    match Memory.store m (a b 1) (Value.Vptr (a b 0)) with
    | Ok m -> m
    | Error _ -> m
  in
  let cc = Layout.to_compcert t m in
  let back = Layout.of_compcert t cc in
  check tbool "roundtrip preserves memory" true (Memory.equal m back)

let test_layout_consecutive () =
  let fl = Flist.make ~offset:5 ~stride:4 in
  let t = Layout.build ~globals:3 fl ~depth:8 in
  check tbool "first freelist block maps to nextblock" true
    (Layout.to_compcert_block t (Flist.nth fl 0) = Some 3);
  check tbool "second maps consecutively" true
    (Layout.to_compcert_block t (Flist.nth fl 1) = Some 4);
  check tbool "globals fixed" true (Layout.to_compcert_block t 1 = Some 1)

let test_layout_alloc_commutes () =
  let fl = Flist.make ~offset:2 ~stride:2 in
  let t = Layout.build ~globals:2 fl ~depth:16 in
  let m = mem_with_block ~size:1 0 in
  let m = Memory.alloc_block m ~block:1 ~size:1 ~perm:Perm.Normal in
  check tbool "alloc commutes with conversion" true
    (Layout.alloc_commutes t m ~size:3);
  (* also after a prior allocation *)
  let m', _, _ = Memory.alloc m fl ~size:1 ~perm:Perm.Normal in
  check tbool "second alloc commutes" true (Layout.alloc_commutes t m' ~size:2)

let prop_layout_store_commutes =
  QCheck.Test.make ~name:"store commutes with layout conversion" ~count:200
    QCheck.(triple (int_bound 1) (int_bound 2) (int_range (-50) 50))
    (fun (blk_choice, ofs, v) ->
      let fl = Flist.make ~offset:1 ~stride:2 in
      let t = Layout.build ~globals:1 fl ~depth:8 in
      let m = mem_with_block ~size:3 0 in
      let m, b, _ = Memory.alloc m fl ~size:3 ~perm:Perm.Normal in
      let target = if blk_choice = 0 then 0 else b in
      match Memory.store m (a target ofs) (Value.Vint v) with
      | Error _ -> true
      | Ok m' -> (
        let cc_then = Layout.to_compcert t m' in
        let cc = Layout.to_compcert t m in
        let target_cc = Option.get (Layout.to_compcert_block t target) in
        match Memory.store cc (a target_cc ofs) (Value.Vint v) with
        | Ok then_cc -> Memory.equal cc_then then_cc
        | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Deque (Chase–Lev work-stealing)                                     *)
(* ------------------------------------------------------------------ *)

let test_deque_lifo_fifo () =
  let d = Deque.create ~capacity:4 () in
  check tbool "empty pop" true (Deque.pop d = None);
  check tbool "empty steal" true (Deque.steal d = None);
  List.iter (fun i -> Deque.push d i) [ 1; 2; 3 ];
  check tint "size" 3 (Deque.size d);
  check tbool "owner pops newest" true (Deque.pop d = Some 3);
  check tbool "thief steals oldest" true (Deque.steal d = Some 1);
  check tbool "owner pops the rest" true (Deque.pop d = Some 2);
  check tbool "drained" true (Deque.pop d = None && Deque.steal d = None)

let test_deque_growth () =
  let d = Deque.create ~capacity:2 () in
  let n = 1000 in
  for i = 1 to n do
    Deque.push d i
  done;
  check tint "all retained across growth" n (Deque.size d);
  for i = n downto 1 do
    check tbool (Fmt.str "pop %d" i) true (Deque.pop d = Some i)
  done

(* Sequential oracle: the same abstract deque as a list, newest-first.
   Owner push/pop act on the head, thieves steal from the tail. *)
type deque_op = Dpush | Dpop | Dsteal

let gen_deque_ops =
  QCheck.Gen.(
    list_size (int_bound 60)
      (frequency [ (3, return Dpush); (2, return Dpop); (2, return Dsteal) ]))

let arb_deque_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ""
        (List.map
           (function Dpush -> "u" | Dpop -> "o" | Dsteal -> "s")
           ops))
    gen_deque_ops

let prop_deque_matches_oracle =
  QCheck.Test.make ~name:"deque matches the list oracle sequentially"
    ~count:1000 arb_deque_ops (fun ops ->
      let d = Deque.create ~capacity:2 () in
      let model = ref [] in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Dpush ->
            incr next;
            Deque.push d !next;
            model := !next :: !model;
            true
          | Dpop -> (
            let got = Deque.pop d in
            match !model with
            | [] -> got = None
            | x :: rest ->
              model := rest;
              got = Some x)
          | Dsteal -> (
            let got = Deque.steal d in
            match List.rev !model with
            | [] -> got = None
            | x :: rest ->
              model := List.rev rest;
              got = Some x))
        ops
      && Deque.size d = List.length !model)

(* Multi-domain hammer: one owner pushes and pops while thieves steal
   concurrently; every pushed element must be taken exactly once, and
   stolen elements must arrive oldest-first per thief (top is
   monotonic, so any one thief's steals are increasing). *)
let test_deque_hammer () =
  let thieves = 3 in
  let n = 20_000 in
  for _round = 1 to 3 do
    let d = Deque.create ~capacity:8 () in
    let taken = Array.make (n + 1) 0 in
    let owner_done = Atomic.make false in
    let thief () =
      let mine = ref [] in
      let rec loop () =
        match Deque.steal d with
        | Some v ->
          mine := v :: !mine;
          loop ()
        | None -> if not (Atomic.get owner_done) then loop ()
      in
      loop ();
      !mine
    in
    let doms = List.init thieves (fun _ -> Domain.spawn thief) in
    (* owner: push everything, popping a batch every so often *)
    let popped = ref [] in
    for i = 1 to n do
      Deque.push d i;
      if i mod 3 = 0 then
        match Deque.pop d with
        | Some v -> popped := v :: !popped
        | None -> ()
    done;
    let rec drain () =
      match Deque.pop d with
      | Some v ->
        popped := v :: !popped;
        drain ()
      | None -> ()
    in
    drain ();
    Atomic.set owner_done true;
    let stolen = List.map Domain.join doms in
    List.iter (fun v -> taken.(v) <- taken.(v) + 1) !popped;
    List.iter
      (fun mine ->
        (* collected newest-first, so per-thief order must be decreasing *)
        check tbool "per-thief steals oldest-first" true
          (let rec sorted = function
             | a :: (b :: _ as rest) -> a > b && sorted rest
             | _ -> true
           in
           sorted mine);
        List.iter (fun v -> taken.(v) <- taken.(v) + 1) mine)
      stolen;
    for i = 1 to n do
      if taken.(i) <> 1 then
        Alcotest.failf "element %d taken %d times" i taken.(i)
    done
  done

(* ------------------------------------------------------------------ *)

(* Pinned generator seed for the properties that take it; override with
   QCHECK_SEED=n to explore a different slice of the input space. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5ca1ab1e)
  | None -> 0x5ca1ab1e

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prop_conflict_symmetric;
    prop_union_monotone;
    prop_conflict_monotone;
    prop_fp_views_roundtrip;
    prop_fp_conflict_matches_oracle;
    prop_fp_subset_matches_oracle;
    prop_fp_locs_matches_oracle;
    prop_fp_inter_locs_matches_oracle;
    prop_flist_nth_mem;
    prop_flist_partition_disjoint;
    prop_mem_equal_iff_fingerprint;
    prop_leffect_matches_oracle;
    prop_leffect_covers_stores;
    prop_layout_store_commutes;
    prop_deque_matches_oracle;
  ]
  @ [
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| qcheck_seed |])
        prop_fp_switch_checks_match_oracle;
    ]

let () =
  Alcotest.run "base"
    [
      ( "addr",
        [
          Alcotest.test_case "compare" `Quick test_addr_compare;
          Alcotest.test_case "set" `Quick test_addr_set;
        ] );
      ( "value",
        [
          Alcotest.test_case "truth" `Quick test_value_truth;
          Alcotest.test_case "addrs" `Quick test_value_addrs;
        ] );
      ( "audit",
        [
          Alcotest.test_case "reports a collision" `Quick
            test_audit_reports_collision;
        ] );
      ( "hashx",
        [
          Alcotest.test_case "value streams every bit" `Quick
            test_value_every_bit;
          Alcotest.test_case "value ignores sharing, takes any size" `Quick
            test_value_sharing_and_size;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "conflict" `Quick test_fp_conflict;
          Alcotest.test_case "conflict bits" `Quick test_fp_conflict_bits;
          Alcotest.test_case "subset/union" `Quick test_fp_subset_union;
          Alcotest.test_case "conflict and subset allocate nothing" `Quick
            test_fp_no_alloc;
        ] );
      ( "flist",
        [
          Alcotest.test_case "partition disjoint" `Quick
            test_flist_partition_disjoint;
          Alcotest.test_case "avoids globals" `Quick test_flist_no_globals;
          Alcotest.test_case "nth/mem" `Quick test_flist_nth_mem;
        ] );
      ( "memory",
        [
          Alcotest.test_case "load/store" `Quick test_mem_load_store;
          Alcotest.test_case "faults" `Quick test_mem_faults;
          Alcotest.test_case "alloc least free" `Quick test_mem_alloc_least_free;
          Alcotest.test_case "forward/LEffect" `Quick test_mem_forward_leffect;
          Alcotest.test_case "eq_on" `Quick test_mem_eq_on;
          Alcotest.test_case "closed" `Quick test_mem_closed;
          Alcotest.test_case "fingerprint" `Quick test_mem_fingerprint;
        ] );
      ( "genv",
        [
          Alcotest.test_case "link" `Quick test_genv_link;
          Alcotest.test_case "compatible duplicates" `Quick
            test_genv_link_compatible_dup;
          Alcotest.test_case "incompatible duplicates" `Quick
            test_genv_link_incompatible;
          Alcotest.test_case "init memory" `Quick test_genv_init_memory;
        ] );
      ( "deque",
        [
          Alcotest.test_case "lifo/fifo ends" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "growth" `Quick test_deque_growth;
          Alcotest.test_case "multi-domain hammer" `Slow test_deque_hammer;
        ] );
      ( "layout",
        [
          Alcotest.test_case "roundtrip" `Quick test_layout_roundtrip;
          Alcotest.test_case "consecutive numbering" `Quick
            test_layout_consecutive;
          Alcotest.test_case "alloc commutes" `Quick test_layout_alloc_commutes;
        ] );
      ("properties", qsuite);
    ]
