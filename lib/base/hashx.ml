(** Two-lane 63-bit hashing for the exploration hot path.

    World keys, memory hashes and core hashes all flow through this
    module. Each hash is a pair of independent 63-bit lanes, packed into
    a fixed 16-byte string by [key_of], so the seen-set ([Cas_mc.Store])
    and the DPOR path sets compare short binary keys instead of
    O(state)-sized canonical strings. The lanes are FNV-1a style with
    distinct primes and offset bases; [fin1]/[fin2] are splitmix-style
    finalizers used by the non-streaming combiners in [Memory]. A
    function body, hashed a few dozen times per build and never per
    explored state, streams whole as its marshalled bytes ([value]).

    Collision posture: the effective strength is that of a single good
    63-bit hash (the lanes share their input stream), i.e. a birthday
    bound of ~2^-63 per state pair — negligible at the 10^5..10^6 states
    this repo explores, and checkable at any time by re-running with the
    full canonical strings ([--paranoid-fp]: the fingerprint-keyed views
    [Cas_conc.Engine.selection] and [Cas_tso.Tso.system] for exploration,
    [Lang.audit] for the simulation checker). *)

(* all constants fit OCaml's 63-bit native int *)
let prime1 = 0x100000001B3 (* FNV-64 prime *)
let prime2 = 0x1000193 (* FNV-32 prime *)
let basis1 = 0x3BF29CE484222325
let basis2 = 0x1B03738712FAD5C9

(** Splitmix-style finalizers: avalanche a 63-bit int. *)
let fin1 x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x1B03738712FAD5C9 in
  x lxor (x lsr 31)

let fin2 x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x3C79AC492BA7B653 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1C69B3F74AC4AE35 in
  x lxor (x lsr 32)

(** Non-streaming combiners for the incremental memory hash: mix a
    cell/block coordinate with a content hash, per lane. XOR-folding the
    results makes the container hash order-independent and incrementally
    updatable (remove the old term, add the new one). *)
let mix2_1 a b = fin1 (((a * prime1) lxor b) + 0x1E3779B97F4A7C15)
let mix2_2 a b = fin2 (((a * prime2) lxor b) + 0x1851F42D4C957F2D)
let mix3_1 a b c = fin1 ((((a * prime1) lxor b) * prime1) lxor c)
let mix3_2 a b c = fin2 ((((a * prime2) lxor b) * prime2) lxor c)

(** Streaming accumulator. Feed it the same tokens a canonical printer
    would emit; two states hash equal iff their token streams match
    (up to 63-bit collisions). *)
type t = { mutable h1 : int; mutable h2 : int }

let create () = { h1 = basis1; h2 = basis2 }

let int st n =
  st.h1 <- (st.h1 lxor n) * prime1;
  st.h2 <- (st.h2 lxor n) * prime2

let char st c = int st (Char.code c)

let string st s =
  for i = 0 to String.length s - 1 do
    int st (Char.code (String.unsafe_get s i))
  done

let bool st b = int st (if b then 1 else 0)

(* [value]'s marshalling buffer, shared under a lock by every domain
   and thread and grown to the largest value seen: [Marshal.to_string]
   mallocs, fills and copies a fresh block per call, 5-10% of a body's
   digest. *)
let scratch = ref (Bytes.create 4096)
let scratch_lock = Mutex.create ()

(** Stream pure data [v] (no closures, no mutable or abstract parts) by
    its marshalled bytes, taken without sharing so that they depend on
    the value alone. A value whose bytes depend on how it was built, such
    as a [Map], must be passed in a canonical form (its [bindings]). The
    length goes first, then seven bytes per step: an eight-byte read
    keeps its low 56 bits, which a 63-bit int holds whole. The lanes
    carry a difference only towards their high bits, so each word also
    folds its bits 28..55 onto 0..27, a bijection. *)
let value st v =
  Mutex.protect scratch_lock @@ fun () ->
  let rec marshal () =
    let b = !scratch in
    (* room for the zeros the last word reads past the value *)
    let room = Bytes.length b - 8 in
    match Marshal.to_buffer b 0 room v [ Marshal.No_sharing ] with
    | n ->
      Bytes.fill b n 8 '\000';
      n
    | exception Failure _ ->
      scratch := Bytes.create (2 * Bytes.length b);
      marshal ()
  in
  let n = marshal () in
  let b = !scratch in
  int st n;
  (* [int]'s step, with the lanes kept in registers *)
  let h1 = ref st.h1 and h2 = ref st.h2 and i = ref 0 in
  while !i < n do
    let w = Int64.to_int (Bytes.get_int64_le b !i) land 0xFF_FFFF_FFFF_FFFF in
    let w = w lxor (w lsr 28) in
    h1 := (!h1 lxor w) * prime1;
    h2 := (!h2 lxor w) * prime2;
    i := !i + 7
  done;
  st.h1 <- !h1;
  st.h2 <- !h2

(** Finalized lane pair. *)
let out st = (fin1 st.h1, fin2 st.h2)

(** Pack a lane pair into a fixed 16-byte binary key. *)
let key_of (h1, h2) =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int h1);
  Bytes.set_int64_le b 8 (Int64.of_int h2);
  Bytes.unsafe_to_string b
