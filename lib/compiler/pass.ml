(** First-class compilation passes.

    A [('a, 'b) t] packages one pass of Fig. 11: its name, the source and
    target language witnesses (the (tl, ge, π) side of the paper's
    per-pass simulation statements), the transformation itself, and a
    private certificate store memoizing its outputs under content-hash
    keys ([Cache]). The core types of the two languages are existential —
    consumers that need to *execute* a stage recover a language-typed
    module via [pack_tgt] and the [Lang.modu] packing. *)

open Cas_base

type options = { optimize : bool  (** run Tailcall/ConstProp/CSE/Deadcode *) }

let default_options = { optimize = true }

type ('a, 'b) t =
  | Pass : {
      name : string;
      src_lang : ('a, 'sc) Lang.t;
      tgt_lang : ('b, 'tc) Lang.t;
      transform : options -> 'a -> 'b;
      optimizing : bool;
      store : 'b Cache.store;
    }
      -> ('a, 'b) t

(** A mandatory pass: runs under every [options]. *)
let v ~name ~src ~tgt (f : 'a -> 'b) : ('a, 'b) t =
  Pass
    {
      name;
      src_lang = src;
      tgt_lang = tgt;
      transform = (fun _ x -> f x);
      optimizing = false;
      store = Cache.store ~name ();
    }

(** An optimization pass (necessarily an endo-pass): the identity when
    [options.optimize] is off, mirroring the Fig. 11 optional stages. *)
let v_opt ~name ~lang (f : 'a -> 'a) : ('a, 'a) t =
  Pass
    {
      name;
      src_lang = lang;
      tgt_lang = lang;
      transform = (fun o x -> if o.optimize then f x else x);
      optimizing = true;
      store = Cache.store ~name ();
    }

let name (Pass p) = p.name
let optimizing (Pass p) = p.optimizing
let src_lang_name (Pass p) = p.src_lang.Lang.name
let tgt_lang_name (Pass p) = p.tgt_lang.Lang.name

(** Run through the pass's certificate store: the output for [key] is
    computed at most once per store tier. [cache:false] bypasses the
    store entirely. *)
let run_cached ?(options = default_options) ~cache ~key (Pass p) x :
    'b * Cache.outcome =
  if not cache then (p.transform options x, `Off)
  else Cache.find_or_add p.store key (fun () -> p.transform options x)

let pack_tgt (Pass p) y = Lang.Mod (p.tgt_lang, y)
