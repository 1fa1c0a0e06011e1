(** RTL: control-flow graph of three-address instructions over an
    unbounded supply of pseudo-registers. The optimization passes
    (Tailcall, Renumber, ConstProp, CSE) work at this level, as in
    CompCert (Fig. 11). *)

open Cas_base

module IMap = Map.Make (Int)

type node = int
type reg = int

type op =
  | Omove of reg
  | Oconst of int
  | Oaddrglobal of string
  | Oaddrstack of int
  | Obinop of Ops.binop * reg * reg
  | Obinop_imm of Ops.binop * reg * int
  | Ounop of Ops.unop * reg

type instr =
  | Inop of node
  | Iop of op * reg * node  (** dst := op; goto node *)
  | Iload of reg * int * reg * node  (** dst := [r + ofs] *)
  | Istore of reg * int * reg * node  (** [r + ofs] := src *)
  | Icall of string * reg list * reg option * node
  | Itailcall of string * reg list
  | Icond of reg * node * node  (** if r ≠ 0 then n1 else n2 *)
  | Ireturn of reg option

type func = {
  fname : string;
  fparams : reg list;
  stacksize : int;
  entry : node;
  code : instr IMap.t;
}

type program = { funcs : func list; globals : Genv.gvar list }

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_reg ppf r = Fmt.pf ppf "x%d" r

let pp_op ppf = function
  | Omove r -> pp_reg ppf r
  | Oconst n -> Fmt.int ppf n
  | Oaddrglobal s -> Fmt.pf ppf "&%s" s
  | Oaddrstack ofs -> Fmt.pf ppf "sp+%d" ofs
  | Obinop (op, a, b) -> Fmt.pf ppf "%a %a %a" pp_reg a Ops.pp_binop op pp_reg b
  | Obinop_imm (op, a, n) -> Fmt.pf ppf "%a %a %d" pp_reg a Ops.pp_binop op n
  | Ounop (op, a) -> Fmt.pf ppf "%a%a" Ops.pp_unop op pp_reg a

let pp_instr ppf = function
  | Inop n -> Fmt.pf ppf "nop -> %d" n
  | Iop (op, d, n) -> Fmt.pf ppf "%a := %a -> %d" pp_reg d pp_op op n
  | Iload (d, ofs, r, n) -> Fmt.pf ppf "%a := [%a+%d] -> %d" pp_reg d pp_reg r ofs n
  | Istore (r, ofs, s, n) -> Fmt.pf ppf "[%a+%d] := %a -> %d" pp_reg r ofs pp_reg s n
  | Icall (f, args, dst, n) ->
    Fmt.pf ppf "%a%s(%a) -> %d"
      Fmt.(option (fun ppf r -> Fmt.pf ppf "%a := " pp_reg r))
      dst f
      Fmt.(list ~sep:comma pp_reg)
      args n
  | Itailcall (f, args) ->
    Fmt.pf ppf "tailcall %s(%a)" f Fmt.(list ~sep:comma pp_reg) args
  | Icond (r, n1, n2) -> Fmt.pf ppf "if %a -> %d else %d" pp_reg r n1 n2
  | Ireturn None -> Fmt.string ppf "return"
  | Ireturn (Some r) -> Fmt.pf ppf "return %a" pp_reg r

let pp_func ppf f =
  Fmt.pf ppf "@[<v2>%s(%a) [stack %d, entry %d]:@ %a@]" f.fname
    Fmt.(list ~sep:comma pp_reg)
    f.fparams f.stacksize f.entry
    Fmt.(
      list ~sep:cut (fun ppf (n, i) -> Fmt.pf ppf "%4d: %a" n pp_instr i))
    (IMap.bindings f.code)

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

type core = {
  fn : func;
  pc : node;
  regs : Value.t IMap.t;
  sp : int option;
  need_frame : bool;
  waiting : reg option option;
  genv : Genv.t;
}

let pp_core ppf c =
  Fmt.pf ppf "{%s pc=%d sp=%a [%a]%s}" c.fn.fname c.pc
    Fmt.(option ~none:(any "-") int)
    c.sp
    Fmt.(list ~sep:comma (fun ppf (r, v) -> Fmt.pf ppf "x%d=%a" r Value.pp v))
    (IMap.bindings c.regs)
    (match c.waiting with None -> "" | Some _ -> " <waiting>")

let reg_val c r = Option.value ~default:Value.Vundef (IMap.find_opt r c.regs)

let eval_op c op : Value.t option =
  match op with
  | Omove r -> Some (reg_val c r)
  | Oconst n -> Some (Value.Vint n)
  | Oaddrglobal s ->
    Option.map (fun a -> Value.Vptr a) (Genv.find_addr c.genv s)
  | Oaddrstack ofs -> (
    match c.sp with
    | Some b -> Some (Value.Vptr (Addr.make b ofs))
    | None -> None)
  | Obinop (op, a, b) -> Some (Ops.eval_binop op (reg_val c a) (reg_val c b))
  | Obinop_imm (op, a, n) ->
    Some (Ops.eval_binop op (reg_val c a) (Value.Vint n))
  | Ounop (op, a) -> Some (Ops.eval_unop op (reg_val c a))

let addr_plus v ofs =
  match v with
  | Value.Vptr a -> Some (Addr.make a.block (a.ofs + ofs))
  | _ -> None

let step (fl : Flist.t) (c : core) (m : Memory.t) : core Lang.succ list =
  if c.waiting <> None then []
  else if c.need_frame then
    let m', b, fp = Memory.alloc m fl ~size:c.fn.stacksize ~perm:Perm.Normal in
    [ Lang.Next (Msg.Tau, fp, { c with need_frame = false; sp = Some b }, m') ]
  else
    match IMap.find_opt c.pc c.fn.code with
    | None -> []
    | Some i -> (
      let tau ?(fp = Footprint.empty) ?m:(m' = m) ?regs pc =
        let regs = Option.value ~default:c.regs regs in
        [ Lang.Next (Msg.Tau, fp, { c with pc; regs }, m') ]
      in
      match i with
      | Inop n -> tau n
      | Iop (op, d, n) -> (
        match eval_op c op with
        | Some v -> tau ~regs:(IMap.add d v c.regs) n
        | None -> [ Lang.Stuck_abort ])
      | Iload (d, ofs, r, n) -> (
        match addr_plus (reg_val c r) ofs with
        | Some a -> (
          match Memory.load m a with
          | Ok v -> tau ~fp:(Footprint.read1 a) ~regs:(IMap.add d v c.regs) n
          | Error _ -> [ Lang.Stuck_abort ])
        | None -> [ Lang.Stuck_abort ])
      | Istore (r, ofs, s, n) -> (
        match addr_plus (reg_val c r) ofs with
        | Some a -> (
          match Memory.store m a (reg_val c s) with
          | Ok m' -> tau ~fp:(Footprint.write1 a) ~m:m' n
          | Error _ -> [ Lang.Stuck_abort ])
        | None -> [ Lang.Stuck_abort ])
      | Icall (f, args, dst, n) ->
        [ Lang.Next
            ( Msg.Call (f, List.map (reg_val c) args),
              Footprint.empty,
              { c with pc = n; waiting = Some dst },
              m ) ]
      | Itailcall (f, args) ->
        [ Lang.Next
            ( Msg.TailCall (f, List.map (reg_val c) args),
              Footprint.empty,
              c,
              m ) ]
      | Icond (r, n1, n2) ->
        if Value.is_true (reg_val c r) then tau n1 else tau n2
      | Ireturn ro ->
        let v = match ro with None -> Value.Vundef | Some r -> reg_val c r in
        [ Lang.Next (Msg.Ret v, Footprint.empty, c, m) ])

let init_core ~genv (p : program) ~entry ~args : core option =
  match List.find_opt (fun f -> String.equal f.fname entry) p.funcs with
  | None -> None
  | Some f ->
    if List.length f.fparams <> List.length args then None
    else
      let regs =
        List.fold_left2
          (fun regs r v -> IMap.add r v regs)
          IMap.empty f.fparams args
      in
      Some
        {
          fn = f;
          pc = f.entry;
          regs;
          sp = None;
          need_frame = f.stacksize > 0;
          waiting = None;
          genv;
        }

let after_external (c : core) (ret : Value.t option) : core option =
  match c.waiting with
  | None -> None
  | Some dst ->
    let regs =
      match dst with
      | None -> c.regs
      | Some r -> IMap.add r (Option.value ~default:(Value.Vint 0) ret) c.regs
    in
    Some { c with regs; waiting = None }

let hash_fundef st (p : program) name =
  match List.find_opt (fun f -> String.equal f.fname name) p.funcs with
  | None -> ()
  | Some f ->
    (* a map's marshalled bytes depend on its insertion order *)
    Hashx.value st
      (f.fname, f.fparams, f.stacksize, f.entry, IMap.bindings f.code)

let lang : (program, core) Lang.t =
  {
    name = "RTL";
    init_core;
    step;
    after_external;
    hash_core = Lang.hash_printed pp_core;
    hash_fundef;
    pp_core;
    globals_of = (fun p -> p.globals);
    defs_of =
      (fun p ->
        List.map (fun f -> (f.fname, List.length f.fparams)) p.funcs);
  }

(** Successors of an instruction — shared by the dataflow analyses of the
    optimization passes. *)
let successors = function
  | Inop n | Iop (_, _, n) | Iload (_, _, _, n) | Istore (_, _, _, n)
  | Icall (_, _, _, n) ->
    [ n ]
  | Icond (_, n1, n2) -> [ n1; n2 ]
  | Itailcall _ | Ireturn _ -> []

(** Registers read by an instruction. *)
let uses = function
  | Inop _ -> []
  | Iop (op, _, _) -> (
    match op with
    | Omove r | Obinop_imm (_, r, _) | Ounop (_, r) -> [ r ]
    | Obinop (_, a, b) -> [ a; b ]
    | Oconst _ | Oaddrglobal _ | Oaddrstack _ -> [])
  | Iload (_, _, r, _) -> [ r ]
  | Istore (r, _, s, _) -> [ r; s ]
  | Icall (_, args, _, _) | Itailcall (_, args) -> args
  | Icond (r, _, _) -> [ r ]
  | Ireturn None -> []
  | Ireturn (Some r) -> [ r ]

(** Register defined by an instruction, if any. *)
let defs = function
  | Iop (_, d, _) | Iload (d, _, _, _) -> Some d
  | Icall (_, _, Some d, _) -> Some d
  | _ -> None
