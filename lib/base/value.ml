(** Abstract word-sized values stored in memory cells and registers.

    The paper's state model maps addresses to values [Val]; values include
    addresses (pointers). We follow CompCert's abstract value discipline:
    integers, pointers and [Vundef] for uninitialized data. Arithmetic on
    [Vundef] or ill-typed operands yields [Vundef] rather than getting
    stuck, matching CompCert's total evaluation of operators. *)

type t =
  | Vundef
  | Vint of int
  | Vptr of Addr.t

let equal a b =
  match (a, b) with
  | Vundef, Vundef -> true
  | Vint x, Vint y -> x = y
  | Vptr x, Vptr y -> Addr.equal x y
  | _ -> false

let compare a b =
  match (a, b) with
  | Vundef, Vundef -> 0
  | Vundef, _ -> -1
  | _, Vundef -> 1
  | Vint x, Vint y -> Int.compare x y
  | Vint _, _ -> -1
  | _, Vint _ -> 1
  | Vptr x, Vptr y -> Addr.compare x y

(** Content hash for the incremental memory hash ([Memory]). Tag bits
    keep the constructors apart; equal values hash equal. *)
let hash = function
  | Vundef -> 0
  | Vint n -> (n lsl 2) lor 1
  | Vptr a -> (Addr.hash a lsl 2) lor 2

let pp ppf = function
  | Vundef -> Fmt.string ppf "undef"
  | Vint n -> Fmt.int ppf n
  | Vptr a -> Fmt.pf ppf "&%a" Addr.pp a

let to_string v = Fmt.str "%a" pp v
let is_true = function Vint n -> n <> 0 | Vptr _ -> true | Vundef -> false

(** Addresses stored inside a value, for closedness checks ([closed(S,σ)]
    in Fig. 7: every pointer reachable from the shared memory must itself
    point into the shared memory). *)
let addrs = function Vptr a -> [ a ] | Vint _ | Vundef -> []
