(** Machine registers of our x86-like target, and locations (registers or
    abstract spill slots) used from LTL down to Linear. *)

open Cas_base

type t = AX | BX | CX | DX | SI | DI

let all = [ AX; BX; CX; DX; SI; DI ]

(** Registers used to pass arguments at calls, in order; the result comes
    back in [AX]. *)
let arg_regs = [ AX; BX; CX; DX; SI; DI ]

let res_reg = AX

let to_string = function
  | AX -> "ax"
  | BX -> "bx"
  | CX -> "cx"
  | DX -> "dx"
  | SI -> "si"
  | DI -> "di"

let pp ppf r = Fmt.string ppf (to_string r)
let compare = Stdlib.compare
let equal a b = compare a b = 0

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

(** Locations: a machine register or an abstract stack slot (LTL/Linear).
    The Stacking pass maps slots to concrete frame offsets. *)
type loc = R of t | S of int

let pp_loc ppf = function
  | R r -> pp ppf r
  | S i -> Fmt.pf ppf "s%d" i

let compare_loc = Stdlib.compare

module LocMap = Stdlib.Map.Make (struct
  type nonrec t = loc

  let compare = compare_loc
end)

(** Generic operator form over any register/location type, shared by LTL,
    Linear, Mach and reused via instantiation. *)
type 'r gop =
  | Gmove of 'r
  | Gconst of int
  | Gaddrglobal of string
  | Gaddrstack of int
  | Gbinop of Ops.binop * 'r * 'r
  | Gbinop_imm of Ops.binop * 'r * int
  | Gunop of Ops.unop * 'r

let pp_gop pp_r ppf = function
  | Gmove r -> pp_r ppf r
  | Gconst n -> Fmt.int ppf n
  | Gaddrglobal s -> Fmt.pf ppf "&%s" s
  | Gaddrstack ofs -> Fmt.pf ppf "sp+%d" ofs
  | Gbinop (op, a, b) -> Fmt.pf ppf "%a %a %a" pp_r a Ops.pp_binop op pp_r b
  | Gbinop_imm (op, a, n) -> Fmt.pf ppf "%a %a %d" pp_r a Ops.pp_binop op n
  | Gunop (op, a) -> Fmt.pf ppf "%a%a" Ops.pp_unop op pp_r a

(** Evaluate a generic operator. [read] looks up a register/location,
    [glob] resolves global symbols, [sp ofs] resolves stack addresses
    (None when no frame). *)
let eval_gop ~read ~glob ~sp op : Value.t option =
  match op with
  | Gmove r -> Some (read r)
  | Gconst n -> Some (Value.Vint n)
  | Gaddrglobal s -> glob s
  | Gaddrstack ofs -> sp ofs
  | Gbinop (op, a, b) -> Some (Ops.eval_binop op (read a) (read b))
  | Gbinop_imm (op, a, n) -> Some (Ops.eval_binop op (read a) (Value.Vint n))
  | Gunop (op, a) -> Some (Ops.eval_unop op (read a))

let gop_uses = function
  | Gmove r | Gbinop_imm (_, r, _) | Gunop (_, r) -> [ r ]
  | Gbinop (_, a, b) -> [ a; b ]
  | Gconst _ | Gaddrglobal _ | Gaddrstack _ -> []

let map_gop f = function
  | Gmove r -> Gmove (f r)
  | Gconst n -> Gconst n
  | Gaddrglobal s -> Gaddrglobal s
  | Gaddrstack ofs -> Gaddrstack ofs
  | Gbinop (op, a, b) -> Gbinop (op, f a, f b)
  | Gbinop_imm (op, a, n) -> Gbinop_imm (op, f a, n)
  | Gunop (op, a) -> Gunop (op, f a)
