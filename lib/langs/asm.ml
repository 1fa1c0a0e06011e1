(** x86-like assembly. This is the compilation target (Fig. 11) under
    sequentially-consistent semantics; [Cas_tso.Tso] reinterprets the same
    syntax under the x86-TSO store-buffer semantics (§7.3).

    Notable points:
    - [Plock_cmpxchg] is a lock-prefixed compare-exchange. Under SC it
      executes as a tiny atomic block: an [EntAtom] micro-step, the
      operation, then an [ExtAtom] micro-step, so the global semantics
      cannot preempt it — exactly how the paper's x86 instantiation
      generates atomic-block boundaries from lock-prefixed instructions.
    - A function marked [is_object] accesses pointer-addressed memory with
      the [Object] permission; hand-written synchronization modules (the
      spin lock of Fig. 10(b)) are object code, compiled client code never
      is. This implements the client/object data confinement of §7.1.
    - Flags are modelled as the last comparison's operand pair, consulted
      by [Pjcc]. *)

open Cas_base

type label = int
type cond = Ceq | Cne | Clt | Cle | Cgt | Cge

type instr =
  | Pmov_ri of Mreg.t * int
  | Pmov_rr of Mreg.t * Mreg.t  (** dst, src *)
  | Plea_global of Mreg.t * string
  | Plea_stack of Mreg.t * int
  | Pbinop_rr of Ops.binop * Mreg.t * Mreg.t  (** d := d op s *)
  | Pbinop_ri of Ops.binop * Mreg.t * int
  | Pbinop3 of Ops.binop * Mreg.t * Mreg.t * Mreg.t
      (** d := s1 op s2 — three-address ALU pseudo-instruction, used by
          Asmgen when the destination clashes with the second operand of a
          non-commutative operator (real x86 needs an lea/imul trick or a
          scratch register; see DESIGN.md) *)
  | Punop_r of Ops.unop * Mreg.t
  | Pload of Mreg.t * Mreg.t * int  (** d := [s + ofs] *)
  | Pstore of Mreg.t * int * Mreg.t  (** [d + ofs] := s *)
  | Pload_stack of Mreg.t * int  (** d := [sp + ofs] (frame access) *)
  | Pstore_stack of int * Mreg.t
  | Pcmp_rr of Mreg.t * Mreg.t
  | Pcmp_ri of Mreg.t * int
  | Pjcc of cond * label
  | Pjmp of label
  | Plabel of label
  | Pcall of string * int * bool  (** callee, arity, has-result *)
  | Ptailjmp of string * int
  | Pret of bool
  | Plock_cmpxchg of Mreg.t * Mreg.t
      (** lock cmpxchg [r1], r2: compare AX with [r1]; if equal store r2
          and set ZF, else load into AX and clear ZF *)
  | Pmfence

type func = {
  fname : string;
  arity : int;
  framesize : int;  (** whole activation record incl. spill area *)
  is_object : bool;
  code : instr list;
}

type program = { funcs : func list; globals : Genv.gvar list }

(* ------------------------------------------------------------------ *)
(* Pretty printing (AT&T-flavoured)                                    *)
(* ------------------------------------------------------------------ *)

let pp_cond ppf c =
  Fmt.string ppf
    (match c with
    | Ceq -> "e"
    | Cne -> "ne"
    | Clt -> "l"
    | Cle -> "le"
    | Cgt -> "g"
    | Cge -> "ge")

let pp_instr ppf =
  let r = Mreg.pp in
  function
  | Pmov_ri (d, n) -> Fmt.pf ppf "movl $%d, %%%a" n r d
  | Pmov_rr (d, s) -> Fmt.pf ppf "movl %%%a, %%%a" r s r d
  | Plea_global (d, g) -> Fmt.pf ppf "leal %s, %%%a" g r d
  | Plea_stack (d, ofs) -> Fmt.pf ppf "leal %d(%%sp), %%%a" ofs r d
  | Pbinop_rr (op, d, s) -> Fmt.pf ppf "%a %%%a, %%%a" Ops.pp_binop op r s r d
  | Pbinop_ri (op, d, n) -> Fmt.pf ppf "%a $%d, %%%a" Ops.pp_binop op n r d
  | Pbinop3 (op, d, s1, s2) ->
    Fmt.pf ppf "%a3 %%%a, %%%a, %%%a" Ops.pp_binop op r s1 r s2 r d
  | Punop_r (op, d) -> Fmt.pf ppf "%a %%%a" Ops.pp_unop op r d
  | Pload (d, s, ofs) -> Fmt.pf ppf "movl %d(%%%a), %%%a" ofs r s r d
  | Pstore (d, ofs, s) -> Fmt.pf ppf "movl %%%a, %d(%%%a)" r s ofs r d
  | Pload_stack (d, ofs) -> Fmt.pf ppf "movl %d(%%sp), %%%a" ofs r d
  | Pstore_stack (ofs, s) -> Fmt.pf ppf "movl %%%a, %d(%%sp)" r s ofs
  | Pcmp_rr (a, b) -> Fmt.pf ppf "cmpl %%%a, %%%a" r b r a
  | Pcmp_ri (a, n) -> Fmt.pf ppf "cmpl $%d, %%%a" n r a
  | Pjcc (c, l) -> Fmt.pf ppf "j%a L%d" pp_cond c l
  | Pjmp l -> Fmt.pf ppf "jmp L%d" l
  | Plabel l -> Fmt.pf ppf "L%d:" l
  | Pcall (f, n, _) -> Fmt.pf ppf "call %s # arity %d" f n
  | Ptailjmp (f, n) -> Fmt.pf ppf "jmp %s # tailcall arity %d" f n
  | Pret _ -> Fmt.string ppf "retl"
  | Plock_cmpxchg (a, s) -> Fmt.pf ppf "lock cmpxchgl %%%a, (%%%a)" r s r a
  | Pmfence -> Fmt.string ppf "mfence"

let pp_func ppf f =
  Fmt.pf ppf "@[<v2>%s: # arity %d, frame %d%s@ %a@]" f.fname f.arity
    f.framesize
    (if f.is_object then ", object" else "")
    Fmt.(list ~sep:cut pp_instr)
    f.code

(* ------------------------------------------------------------------ *)
(* SC semantics                                                        *)
(* ------------------------------------------------------------------ *)

type core = {
  fn : func;
  code : instr array;
  pc : int;
  regs : Value.t Mreg.Map.t;
  flags : (Value.t * Value.t) option;  (** operands of the last compare *)
  sp : int option;
  need_frame : bool;
  waiting : bool option;
  atomphase : int;  (** 0 normal, 1 inside lock prefix, 2 before ExtAtom *)
  genv : Genv.t;
}

let pp_core ppf c =
  Fmt.pf ppf "{%s pc=%d sp=%a atom=%d [%a] flags=%a%s}" c.fn.fname c.pc
    Fmt.(option ~none:(any "-") int)
    c.sp c.atomphase
    Fmt.(
      list ~sep:comma (fun ppf (r, v) ->
          Fmt.pf ppf "%a=%a" Mreg.pp r Value.pp v))
    (Mreg.Map.bindings c.regs)
    Fmt.(
      option ~none:(any "-") (fun ppf (a, b) ->
          Fmt.pf ppf "(%a?%a)" Value.pp a Value.pp b))
    c.flags
    (match c.waiting with None -> "" | Some _ -> " <waiting>")

let reg_val c r = Option.value ~default:Value.Vundef (Mreg.Map.find_opt r c.regs)

let find_label code l =
  let n = Array.length code in
  let rec go i =
    if i >= n then None
    else match code.(i) with Plabel l' when l' = l -> Some i | _ -> go (i + 1)
  in
  go 0

let cond_to_binop = function
  | Ceq -> Ops.Oeq
  | Cne -> Ops.One
  | Clt -> Ops.Olt
  | Cle -> Ops.Ole
  | Cgt -> Ops.Ogt
  | Cge -> Ops.Oge

let eval_cond c cond =
  match c.flags with
  | None -> None
  | Some (a, b) -> (
    match Ops.eval_binop (cond_to_binop cond) a b with
    | Value.Vint n -> Some (n <> 0)
    | _ -> None)

let addr_plus v ofs =
  match v with
  | Value.Vptr a -> Some (Addr.make a.Addr.block (a.Addr.ofs + ofs))
  | _ -> None

let data_perm c = if c.fn.is_object then Perm.Object else Perm.Normal

let call_args c arity =
  List.filteri (fun i _ -> i < arity) Mreg.arg_regs |> List.map (reg_val c)

(** One SC step. Also reused (with [`Tso] mode) by the TSO machine for
    every instruction that does not touch memory. *)
let step (fl : Flist.t) (c : core) (m : Memory.t) : core Lang.succ list =
  if c.waiting <> None then []
  else if c.need_frame then
    let m', b, fp = Memory.alloc m fl ~size:c.fn.framesize ~perm:Perm.Normal in
    [ Lang.Next (Msg.Tau, fp, { c with need_frame = false; sp = Some b }, m') ]
  else if c.pc < 0 || c.pc >= Array.length c.code then []
  else
    let tau ?(fp = Footprint.empty) ?m:(m' = m) ?regs ?(flags = c.flags) pc =
      let regs = Option.value ~default:c.regs regs in
      [ Lang.Next (Msg.Tau, fp, { c with pc; regs; flags }, m') ]
    in
    let set d v pc = tau ~regs:(Mreg.Map.add d v c.regs) pc in
    let stack_addr ofs =
      match c.sp with
      | Some b when ofs >= 0 && ofs < c.fn.framesize -> Some (Addr.make b ofs)
      | _ -> None
    in
    let i = c.code.(c.pc) in
    match (i, c.atomphase) with
    | Plock_cmpxchg _, 0 ->
      [ Lang.Next (Msg.EntAtom, Footprint.empty, { c with atomphase = 1 }, m) ]
    | Plock_cmpxchg (ra, rs), 1 -> (
      match reg_val c ra with
      | Value.Vptr a -> (
        match Memory.load ~perm:(data_perm c) m a with
        | Ok old ->
          let ax = reg_val c Mreg.AX in
          let flags = Some (ax, old) in
          if Value.equal ax old then (
            match Memory.store ~perm:(data_perm c) m a (reg_val c rs) with
            | Ok m' ->
              [ Lang.Next
                  ( Msg.Tau,
                    Footprint.union (Footprint.read1 a) (Footprint.write1 a),
                    { c with atomphase = 2; flags },
                    m' ) ]
            | Error _ -> [ Lang.Stuck_abort ])
          else
            [ Lang.Next
                ( Msg.Tau,
                  Footprint.read1 a,
                  {
                    c with
                    atomphase = 2;
                    flags;
                    regs = Mreg.Map.add Mreg.AX old c.regs;
                  },
                  m ) ]
        | Error _ -> [ Lang.Stuck_abort ])
      | _ -> [ Lang.Stuck_abort ])
    | Plock_cmpxchg _, 2 ->
      [ Lang.Next
          ( Msg.ExtAtom,
            Footprint.empty,
            { c with atomphase = 0; pc = c.pc + 1 },
            m ) ]
    | Plock_cmpxchg _, _ -> [ Lang.Stuck_abort ]
    | _, phase when phase <> 0 -> [ Lang.Stuck_abort ]
    | Pmov_ri (d, n), _ -> set d (Value.Vint n) (c.pc + 1)
    | Pmov_rr (d, s), _ -> set d (reg_val c s) (c.pc + 1)
    | Plea_global (d, g), _ -> (
      match Genv.find_addr c.genv g with
      | Some a -> set d (Value.Vptr a) (c.pc + 1)
      | None -> [ Lang.Stuck_abort ])
    | Plea_stack (d, ofs), _ -> (
      match c.sp with
      | Some b -> set d (Value.Vptr (Addr.make b ofs)) (c.pc + 1)
      | None -> [ Lang.Stuck_abort ])
    | Pbinop_rr (op, d, s), _ ->
      set d (Ops.eval_binop op (reg_val c d) (reg_val c s)) (c.pc + 1)
    | Pbinop_ri (op, d, n), _ ->
      set d (Ops.eval_binop op (reg_val c d) (Value.Vint n)) (c.pc + 1)
    | Pbinop3 (op, d, s1, s2), _ ->
      set d (Ops.eval_binop op (reg_val c s1) (reg_val c s2)) (c.pc + 1)
    | Punop_r (op, d), _ -> set d (Ops.eval_unop op (reg_val c d)) (c.pc + 1)
    | Pload (d, s, ofs), _ -> (
      match addr_plus (reg_val c s) ofs with
      | Some a -> (
        match Memory.load ~perm:(data_perm c) m a with
        | Ok v ->
          tau ~fp:(Footprint.read1 a) ~regs:(Mreg.Map.add d v c.regs) (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Pstore (d, ofs, s), _ -> (
      match addr_plus (reg_val c d) ofs with
      | Some a -> (
        match Memory.store ~perm:(data_perm c) m a (reg_val c s) with
        | Ok m' -> tau ~fp:(Footprint.write1 a) ~m:m' (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Pload_stack (d, ofs), _ -> (
      match stack_addr ofs with
      | Some a -> (
        match Memory.load m a with
        | Ok v ->
          tau ~fp:(Footprint.read1 a) ~regs:(Mreg.Map.add d v c.regs) (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Pstore_stack (ofs, s), _ -> (
      match stack_addr ofs with
      | Some a -> (
        match Memory.store m a (reg_val c s) with
        | Ok m' -> tau ~fp:(Footprint.write1 a) ~m:m' (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Pcmp_rr (a, b), _ ->
      tau ~flags:(Some (reg_val c a, reg_val c b)) (c.pc + 1)
    | Pcmp_ri (a, n), _ ->
      tau ~flags:(Some (reg_val c a, Value.Vint n)) (c.pc + 1)
    | Pjcc (cond, l), _ -> (
      match eval_cond c cond with
      | None -> [ Lang.Stuck_abort ]
      | Some true -> (
        match find_label c.code l with
        | Some i -> tau i
        | None -> [ Lang.Stuck_abort ])
      | Some false -> tau (c.pc + 1))
    | Pjmp l, _ -> (
      match find_label c.code l with
      | Some i -> tau i
      | None -> [ Lang.Stuck_abort ])
    | Plabel _, _ -> tau (c.pc + 1)
    | Pcall (f, arity, has_res), _ ->
      [ Lang.Next
          ( Msg.Call (f, call_args c arity),
            Footprint.empty,
            { c with pc = c.pc + 1; waiting = Some has_res },
            m ) ]
    | Ptailjmp (f, arity), _ ->
      [ Lang.Next (Msg.TailCall (f, call_args c arity), Footprint.empty, c, m) ]
    | Pret has_res, _ ->
      let v = if has_res then reg_val c Mreg.AX else Value.Vundef in
      [ Lang.Next (Msg.Ret v, Footprint.empty, c, m) ]
    | Pmfence, _ -> tau (c.pc + 1)

let init_core ~genv (p : program) ~entry ~args : core option =
  match List.find_opt (fun f -> String.equal f.fname entry) p.funcs with
  | None -> None
  | Some f ->
    if List.length args <> f.arity || f.arity > List.length Mreg.arg_regs then
      None
    else
      let regs =
        List.fold_left2
          (fun regs r v -> Mreg.Map.add r v regs)
          Mreg.Map.empty
          (List.filteri (fun i _ -> i < f.arity) Mreg.arg_regs)
          args
      in
      Some
        {
          fn = f;
          code = Array.of_list f.code;
          pc = 0;
          regs;
          flags = None;
          sp = None;
          need_frame = f.framesize > 0;
          waiting = None;
          atomphase = 0;
          genv;
        }

let after_external (c : core) (ret : Value.t option) : core option =
  match c.waiting with
  | None -> None
  | Some has_res ->
    let regs =
      if has_res then
        Mreg.Map.add Mreg.res_reg
          (Option.value ~default:(Value.Vint 0) ret)
          c.regs
      else c.regs
    in
    Some { c with regs; waiting = None }

(* Streamed state hash in [pp_core]'s classes: machine state only
   (registers, pc, sp, flags, atomic phase) — the code is static per
   function symbol, so like the printer we identify it by name. Hot under
   both the SC engine and [Cas_tso.Tso]. *)
let hash_core st c =
  Hashx.string st c.fn.fname;
  Hashx.int st c.pc;
  (match c.sp with
  | None -> Hashx.char st '-'
  | Some b ->
    Hashx.char st '@';
    Hashx.int st b);
  Hashx.int st c.atomphase;
  Mreg.Map.iter
    (fun r v ->
      Hashx.int st (Hashtbl.hash r);
      Hashx.char st '=';
      Hashx.int st (Value.hash v))
    c.regs;
  (match c.flags with
  | None -> Hashx.char st '-'
  | Some (a, b) ->
    Hashx.char st '?';
    Hashx.int st (Value.hash a);
    Hashx.int st (Value.hash b));
  Hashx.bool st (c.waiting <> None)

let hash_fundef st (p : program) name =
  match List.find_opt (fun f -> String.equal f.fname name) p.funcs with
  | None -> ()
  | Some f -> Hashx.value st f

(** x86 with SC semantics — the "x86-SC" language of Fig. 3. *)
let lang : (program, core) Lang.t =
  {
    name = "x86-SC";
    init_core;
    step;
    after_external;
    hash_core;
    hash_fundef;
    pp_core;
    globals_of = (fun p -> p.globals);
    defs_of = (fun p -> List.map (fun f -> (f.fname, f.arity)) p.funcs);
  }
