(** Mach: Linear after the Stacking pass. Abstract spill slots are now
    concrete cells of the activation record (one memory block per
    activation: stack data at offsets [0, stacksize), spill slots at
    [stacksize, stacksize + nslots)), and the calling convention is fixed:
    arguments travel in [Mreg.arg_regs], results in [Mreg.res_reg]. *)

open Cas_base

type op = Mreg.t Mreg.gop
type label = int

type instr =
  | Mop of op * Mreg.t
  | Mload of Mreg.t * int * Mreg.t
  | Mstore of Mreg.t * int * Mreg.t  (** [addr+ofs] := src *)
  | Mgetstack of int * Mreg.t  (** reg := slot i *)
  | Msetstack of Mreg.t * int  (** slot i := reg *)
  | Mcall of string * int * bool  (** callee, arity, has-result *)
  | Mtailcall of string * int
  | Mlabel of label
  | Mgoto of label
  | Mcond of Mreg.t * label
  | Mreturn of bool  (** whether AX carries a result *)

type func = {
  fname : string;
  arity : int;
  stacksize : int;
  nslots : int;
  code : instr list;
}

type program = { funcs : func list; globals : Genv.gvar list }

let pp_instr ppf =
  let pp_r = Mreg.pp in
  function
  | Mop (op, d) -> Fmt.pf ppf "%a := %a" pp_r d (Mreg.pp_gop pp_r) op
  | Mload (d, ofs, r) -> Fmt.pf ppf "%a := [%a+%d]" pp_r d pp_r r ofs
  | Mstore (r, ofs, s) -> Fmt.pf ppf "[%a+%d] := %a" pp_r r ofs pp_r s
  | Mgetstack (i, r) -> Fmt.pf ppf "%a := slot(%d)" pp_r r i
  | Msetstack (r, i) -> Fmt.pf ppf "slot(%d) := %a" i pp_r r
  | Mcall (f, n, res) -> Fmt.pf ppf "call %s/%d%s" f n (if res then " ->ax" else "")
  | Mtailcall (f, n) -> Fmt.pf ppf "tailcall %s/%d" f n
  | Mlabel l -> Fmt.pf ppf "L%d:" l
  | Mgoto l -> Fmt.pf ppf "goto L%d" l
  | Mcond (r, l) -> Fmt.pf ppf "if %a goto L%d" pp_r r l
  | Mreturn res -> Fmt.pf ppf "return%s" (if res then " ax" else "")

let pp_func ppf f =
  Fmt.pf ppf "@[<v2>%s/%d [stack %d, slots %d]:@ %a@]" f.fname f.arity
    f.stacksize f.nslots
    Fmt.(list ~sep:cut pp_instr)
    f.code

type core = {
  fn : func;
  code : instr array;
  pc : int;
  regs : Value.t Mreg.Map.t;
  sp : int option;  (** frame block (stack data + spill area) *)
  need_frame : bool;
  waiting : bool option;  (** [Some has_result] while blocked at a call *)
  genv : Genv.t;
}

let pp_core ppf c =
  Fmt.pf ppf "{%s pc=%d sp=%a [%a]%s}" c.fn.fname c.pc
    Fmt.(option ~none:(any "-") int)
    c.sp
    Fmt.(
      list ~sep:comma (fun ppf (r, v) ->
          Fmt.pf ppf "%a=%a" Mreg.pp r Value.pp v))
    (Mreg.Map.bindings c.regs)
    (match c.waiting with None -> "" | Some _ -> " <waiting>")

let reg_val c r = Option.value ~default:Value.Vundef (Mreg.Map.find_opt r c.regs)
let frame_size f = f.stacksize + f.nslots

let find_label code l =
  let n = Array.length code in
  let rec go i =
    if i >= n then None
    else match code.(i) with Mlabel l' when l' = l -> Some i | _ -> go (i + 1)
  in
  go 0

let eval_op c op =
  Mreg.eval_gop op ~read:(reg_val c)
    ~glob:(fun s -> Option.map (fun a -> Value.Vptr a) (Genv.find_addr c.genv s))
    ~sp:(fun ofs ->
      match c.sp with
      | Some b -> Some (Value.Vptr (Addr.make b ofs))
      | None -> None)

let addr_plus v ofs =
  match v with
  | Value.Vptr a -> Some (Addr.make a.Addr.block (a.Addr.ofs + ofs))
  | _ -> None

let call_args c arity = List.filteri (fun i _ -> i < arity) Mreg.arg_regs |> List.map (reg_val c)

let step (fl : Flist.t) (c : core) (m : Memory.t) : core Lang.succ list =
  if c.waiting <> None then []
  else if c.need_frame then
    let m', b, fp =
      Memory.alloc m fl ~size:(frame_size c.fn) ~perm:Perm.Normal
    in
    [ Lang.Next (Msg.Tau, fp, { c with need_frame = false; sp = Some b }, m') ]
  else if c.pc < 0 || c.pc >= Array.length c.code then []
  else
    let tau ?(fp = Footprint.empty) ?m:(m' = m) ?regs pc =
      let regs = Option.value ~default:c.regs regs in
      [ Lang.Next (Msg.Tau, fp, { c with pc; regs }, m') ]
    in
    let slot_addr i =
      match c.sp with
      | Some b when i >= 0 && i < c.fn.nslots ->
        Some (Addr.make b (c.fn.stacksize + i))
      | _ -> None
    in
    match c.code.(c.pc) with
    | Mlabel _ -> tau (c.pc + 1)
    | Mgoto l -> (
      match find_label c.code l with
      | Some i -> tau i
      | None -> [ Lang.Stuck_abort ])
    | Mcond (r, l) ->
      if Value.is_true (reg_val c r) then
        match find_label c.code l with
        | Some i -> tau i
        | None -> [ Lang.Stuck_abort ]
      else tau (c.pc + 1)
    | Mop (op, d) -> (
      match eval_op c op with
      | Some v -> tau ~regs:(Mreg.Map.add d v c.regs) (c.pc + 1)
      | None -> [ Lang.Stuck_abort ])
    | Mload (d, ofs, r) -> (
      match addr_plus (reg_val c r) ofs with
      | Some a -> (
        match Memory.load m a with
        | Ok v ->
          tau ~fp:(Footprint.read1 a) ~regs:(Mreg.Map.add d v c.regs) (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Mstore (r, ofs, s) -> (
      match addr_plus (reg_val c r) ofs with
      | Some a -> (
        match Memory.store m a (reg_val c s) with
        | Ok m' -> tau ~fp:(Footprint.write1 a) ~m:m' (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Mgetstack (i, r) -> (
      match slot_addr i with
      | Some a -> (
        match Memory.load m a with
        | Ok v ->
          tau ~fp:(Footprint.read1 a) ~regs:(Mreg.Map.add r v c.regs) (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Msetstack (r, i) -> (
      match slot_addr i with
      | Some a -> (
        match Memory.store m a (reg_val c r) with
        | Ok m' -> tau ~fp:(Footprint.write1 a) ~m:m' (c.pc + 1)
        | Error _ -> [ Lang.Stuck_abort ])
      | None -> [ Lang.Stuck_abort ])
    | Mcall (f, arity, has_res) ->
      [ Lang.Next
          ( Msg.Call (f, call_args c arity),
            Footprint.empty,
            { c with pc = c.pc + 1; waiting = Some has_res },
            m ) ]
    | Mtailcall (f, arity) ->
      [ Lang.Next (Msg.TailCall (f, call_args c arity), Footprint.empty, c, m) ]
    | Mreturn has_res ->
      let v = if has_res then reg_val c Mreg.res_reg else Value.Vundef in
      [ Lang.Next (Msg.Ret v, Footprint.empty, c, m) ]

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
          sp = None;
          need_frame = frame_size f > 0;
          waiting = None;
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

let hash_fundef st (p : program) name =
  match List.find_opt (fun f -> String.equal f.fname name) p.funcs with
  | None -> ()
  | Some f -> Hashx.value st f

let lang : (program, core) Lang.t =
  {
    name = "Mach";
    init_core;
    step;
    after_external;
    hash_core = Lang.hash_printed pp_core;
    hash_fundef;
    pp_core;
    globals_of = (fun p -> p.globals);
    defs_of = (fun p -> List.map (fun f -> (f.fname, f.arity)) p.funcs);
  }
