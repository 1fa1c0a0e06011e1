(** Lock implementations (Fig. 10).

    - [gamma_lock] — the CImp abstract specification (re-exported from
      [Cas_langs.Cimp]);
    - [pi_lock] — the efficient x86-TSO implementation: TTAS acquire via
      [lock cmpxchg] with a plain-load spin loop, and a *plain store*
      release. The plain load and store race with other threads'
      lock-prefixed accesses: the confined benign races of §7.3.
    - [pi_lock_fenced] — a conservative variant whose release is fenced;
      the figures example compares the two to show what the benign
      race buys.

    The lock word [L] lives in [Object]-permission memory: client code
    cannot touch it, which is the confinement the extended framework
    (Fig. 3) requires. L = 1 means free, 0 means held. *)

open Cas_base
open Cas_langs

let gamma_lock = Cimp.gamma_lock

let l_acq = 0
let l_spin = 1
let l_enter = 2

let lock_func : Asm.func =
  {
    Asm.fname = "lock";
    arity = 0;
    framesize = 0;
    is_object = true;
    code =
      [
        Asm.Plea_global (Mreg.CX, "L");
        Asm.Pmov_ri (Mreg.DX, 0);
        Asm.Plabel l_acq;
        Asm.Pmov_ri (Mreg.AX, 1);
        Asm.Plock_cmpxchg (Mreg.CX, Mreg.DX);
        Asm.Pjcc (Asm.Ceq, l_enter);
        Asm.Plabel l_spin;
        Asm.Pload (Mreg.BX, Mreg.CX, 0);  (* plain load: benign race *)
        Asm.Pcmp_ri (Mreg.BX, 0);
        Asm.Pjcc (Asm.Ceq, l_spin);
        Asm.Pjmp l_acq;
        Asm.Plabel l_enter;
        Asm.Pret false;
      ];
  }

let unlock_func : Asm.func =
  {
    Asm.fname = "unlock";
    arity = 0;
    framesize = 0;
    is_object = true;
    code =
      [
        Asm.Plea_global (Mreg.AX, "L");
        Asm.Pmov_ri (Mreg.BX, 1);
        Asm.Pstore (Mreg.AX, 0, Mreg.BX);  (* plain store: benign race *)
        Asm.Pret false;
      ];
  }

let unlock_fenced_func : Asm.func =
  {
    unlock_func with
    Asm.code =
      [
        Asm.Plea_global (Mreg.AX, "L");
        Asm.Pmov_ri (Mreg.BX, 1);
        Asm.Pstore (Mreg.AX, 0, Mreg.BX);
        Asm.Pmfence;
        Asm.Pret false;
      ];
  }

let lock_globals ?(lock_var = "L") () =
  [ Genv.gvar ~perm:Perm.Object ~init:[ Genv.Iint 1 ] lock_var 1 ]

(** π_lock: the x86-TSO lock module of Fig. 10(b). *)
let pi_lock : Asm.program =
  { Asm.funcs = [ lock_func; unlock_func ]; globals = lock_globals () }

(** Same acquire, but the release is followed by a full fence. *)
let pi_lock_fenced : Asm.program =
  { Asm.funcs = [ lock_func; unlock_fenced_func ]; globals = lock_globals () }
