(** Splittable deterministic randomness.

    The fuzz generator and the serve load tests both need streams that
    are (a) fully determined by an integer seed, (b) cheap, and (c)
    *splittable*: handing a child generator to a subtree must not
    perturb the parent's stream, so inserting one more draw in one
    corner of the program generator does not reshuffle every later
    program. This is the SplitMix construction (Steele–Lea–Flood) on
    OCaml's 63-bit native ints: a counter advanced by a golden-ratio
    increment, finalized through an avalanche mix; [split] derives an
    independent stream from the next counter value.

    No global state anywhere — every consumer owns its [t]. *)

type t = { mutable state : int; gamma : int }

(* 2^64 / phi, truncated into OCaml's 63-bit int range; must be odd. *)
let golden_gamma = 0x1F61C8864680B583

let mix64 (z : int) : int =
  let z = (z lxor (z lsr 33)) * 0x7F4A7C12F5A77B9 in
  let z = (z lxor (z lsr 29)) * 0x14A6C45A6D4C79B in
  z lxor (z lsr 32)

(* A gamma must be odd; mix the raw value and force the low bit. *)
let mix_gamma (z : int) : int = mix64 z lor 1

let make ~(seed : int) : t =
  { state = mix64 ((seed * 2) lxor 0x2545F4914F6CDD1D); gamma = golden_gamma }

let next (t : t) : int =
  t.state <- t.state + t.gamma;
  mix64 t.state land max_int

(** Independent child stream: consumes one draw from the parent and
    derives a fresh (state, gamma) pair, so sibling splits and the
    parent's subsequent draws are all decorrelated. *)
let split (t : t) : t =
  t.state <- t.state + t.gamma;
  let state = mix64 t.state in
  t.state <- t.state + t.gamma;
  let gamma = mix_gamma t.state in
  { state; gamma }

(** Uniform int in [0, bound). [bound] must be positive. *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let bool (t : t) : bool = next t land 1 = 1

(* uniform in [0,1) *)
let uniform (t : t) : float =
  float_of_int (next t land 0x3FFFFFFF) /. 1073741824.

(** Pick an element uniformly. *)
let choose (t : t) (xs : 'a array) : 'a =
  if Array.length xs = 0 then invalid_arg "Rng.choose: empty array";
  xs.(int t (Array.length xs))

(** Weighted pick: [(w, x)] pairs with positive integer weights. *)
let weighted (t : t) (xs : (int * 'a) array) : 'a =
  let total = Array.fold_left (fun acc (w, _) -> acc + w) 0 xs in
  if total <= 0 then invalid_arg "Rng.weighted: weights must be positive";
  let u = int t total in
  let rec go i acc =
    let w, x = xs.(i) in
    if u < acc + w then x else go (i + 1) (acc + w)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Zipf sampling                                                       *)
(* ------------------------------------------------------------------ *)

(** Cumulative distribution of a Zipf law with exponent [s] over ranks
    [0..n-1]: rank k has weight 1/(k+1)^s. *)
let zipf_cdf ~(n : int) ~(s : float) : float array =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(** Smallest rank whose cumulative weight covers a uniform draw. *)
let sample (cdf : float array) (t : t) : int =
  let u = uniform t in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo
