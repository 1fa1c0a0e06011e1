(** Random mini-C programs for the compiler's qcheck properties: one
    [main] over four temps, two globals and an address-taken local
    [buf[2]], with straight-line arithmetic, conditionals, bounded loops
    and [print] calls. Programs are memory-safe and terminate by
    construction, so every failure is a compiler bug. Shared by
    test_random (behaviour) and test_compiler (liveness references). *)

open Cas_base
open Cas_langs

(* temps t0..t3, globals g0 g1, one addressable local buf[2] *)
let temps = [ "t0"; "t1"; "t2"; "t3" ]
let globals = [ "g0"; "g1" ]

open QCheck.Gen

let gen_binop =
  oneofl Ops.[ Oadd; Osub; Omul; Oand; Oor; Oxor; Oeq; One; Olt; Ole; Ogt ]

(* expressions are int-valued; pointer expressions appear only in the
   fixed shapes below so that programs stay memory-safe by construction *)
let rec gen_expr n =
  if n <= 0 then
    oneof
      [
        map (fun c -> Clight.Econst c) (int_range (-4) 9);
        map (fun x -> Clight.Etemp x) (oneofl temps);
        map (fun g -> Clight.Eglob g) (oneofl globals);
        map
          (fun i ->
            (* buf[i] for i in {0,1}: safe indexing *)
            Clight.Ederef
              (Clight.Ebinop (Ops.Oadd, Clight.Eaddrof "buf", Clight.Econst i)))
          (int_bound 1);
      ]
  else
    frequency
      [
        (3, gen_expr 0);
        ( 4,
          map2
            (fun op (a, b) -> Clight.Ebinop (op, a, b))
            gen_binop
            (pair (gen_expr (n / 2)) (gen_expr (n / 2))) );
        (1, map (fun a -> Clight.Eunop (Ops.Oneg, a)) (gen_expr (n - 1)));
      ]

let gen_lhs =
  oneof
    [
      map (fun x -> `Temp x) (oneofl temps);
      map (fun g -> `Glob g) (oneofl globals);
      map (fun i -> `Buf i) (int_bound 1);
    ]

let assign lhs e =
  match lhs with
  | `Temp x -> Clight.Sset (x, e)
  | `Glob g -> Clight.Sassign (Clight.Lglob g, e)
  | `Buf i ->
    Clight.Sassign
      ( Clight.Lderef
          (Clight.Ebinop (Ops.Oadd, Clight.Eaddrof "buf", Clight.Econst i)),
        e )

let rec gen_stmt n =
  if n <= 0 then map2 assign gen_lhs (gen_expr 2)
  else
    frequency
      [
        (4, map2 assign gen_lhs (gen_expr 3));
        ( 2,
          map2
            (fun a b -> Clight.Sseq (a, b))
            (gen_stmt (n / 2)) (gen_stmt (n / 2)) );
        ( 2,
          map3
            (fun e a b -> Clight.Sif (e, a, b))
            (gen_expr 2) (gen_stmt (n / 2)) (gen_stmt (n / 2)) );
        ( 1,
          (* bounded loop: while (tL < k) { body; tL = tL + 1 } over a
             dedicated counter temp so termination is structural *)
          map2
            (fun k body ->
              Clight.Sseq
                ( Clight.Sset ("loop", Clight.Econst 0),
                  Clight.Swhile
                    ( Clight.Ebinop (Ops.Olt, Clight.Etemp "loop", Clight.Econst k),
                      Clight.Sseq
                        ( body,
                          Clight.Sset
                            ( "loop",
                              Clight.Ebinop
                                (Ops.Oadd, Clight.Etemp "loop", Clight.Econst 1)
                            ) ) ) ))
            (int_range 1 3) (gen_stmt (n / 2)) );
        ( 1,
          map (fun e -> Clight.Scall (None, "print", [ e ])) (gen_expr 2) );
      ]

let gen_program : Clight.program QCheck.Gen.t =
  let* body = sized_size (int_bound 12) gen_stmt in
  let* ret = gen_expr 2 in
  let init_temps =
    List.fold_right
      (fun t acc -> Clight.Sseq (Clight.Sset (t, Clight.Econst 0), acc))
      temps
      (Clight.Sseq
         ( assign (`Buf 0) (Clight.Econst 0),
           Clight.Sseq (assign (`Buf 1) (Clight.Econst 0), body) ))
  in
  return
    {
      Clight.globals =
        List.map (fun g -> Genv.gvar ~init:[ Genv.Iint 1 ] g 1) globals;
      funcs =
        [
          {
            Clight.fname = "main";
            fparams = [];
            fvars = [ ("buf", 2) ];
            fbody = Clight.Sseq (init_temps, Clight.Sreturn (Some ret));
          };
        ];
    }

let print_program (p : Clight.program) =
  Fmt.str "%a"
    Fmt.(
      list ~sep:cut (fun ppf f ->
          Fmt.pf ppf "%s() { %a }" f.Clight.fname Clight.pp_stmt f.Clight.fbody))
    p.Clight.funcs

let arb_program = QCheck.make ~print:print_program gen_program
