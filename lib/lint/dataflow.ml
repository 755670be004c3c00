(* The semantic analyses over typedtrees: R1' interprocedural
   determinism taint, and one acquire/release walk ({!check}) that
   checks both R6 lock discipline and R7 resource lifetime.

   The walk is path-sensitive over one top-level binding.  Its state is
   the set of held things: lock names for R6, let-bound resources by
   ident for R7.  Control flow is defined once - let scoping,
   match/try/if merges, loops, raise points, [Fun.protect] finalizers
   and local helpers - and a rule supplies only its acquire/release
   heads, how it merges branches and how it reports.

   "Can this expression raise" is approximated once: a call is assumed
   to raise unless its head is on the safe-external list or is a local
   let-bound lambda whose body was summarized as non-raising.
   [assert false] and [Texp_unreachable] mark dead code and are never
   treated as raises; a [Partial] match is a potential Match_failure.
   Misclassifying a raising function as safe loses a finding; the
   reverse invents one, so the safe list is deliberately short.

   Blind spots (documented in DESIGN.md paragraph 15): functions inside
   nested modules are not call-graph nodes; [f @@ x] / [x |> f] hide
   the callee from the head check; [Mutex.try_lock] is not modeled; a
   [try] handler or an [exception] case is not cleanup (a raise in the
   body leaks even if the handler closes); a helper's summary is
   order-blind (what it releases counts as released before it can
   raise) and holds only the releases written in its own body; and a
   resource handed to unknown code (returned, stored, captured by a
   lambda or helper passed on) escapes rather than leaks. *)

open Typedtree
module S = Set.Make (String)

type report = {
  findings : Finding.t list;
  allow_uses : (string * string) list;  (** (rule id, allow prefix) that suppressed *)
}

(* ---------- shared classification ---------- *)

let head_of f =
  match f.exp_desc with Texp_ident (p, _, _) -> Some (p, Callgraph.normalize p) | _ -> None

let dotted comps = String.concat "." comps

let is_raise_head = function
  | [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] -> true
  | _ -> false

(* Externals that cannot raise (or whose failure modes we accept, like
   allocation).  Division, [List.hd], [Array.get], [Option.get],
   [Hashtbl.find] are intentionally absent. *)
let safe_head = function
  | [ "Mutex"; _ ] | [ "Condition"; _ ] | [ "Atomic"; _ ]
  | [ "Domain"; ("cpu_relax" | "self" | "recommended_domain_count") ]
  | [ ("ref" | "!" | ":=" | "incr" | "decr" | "ignore" | "not" | "fst" | "snd") ]
  | [ ("min" | "max" | "abs" | "succ" | "pred" | "compare") ]
  | [ ("=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=") ]
  | [ ("+" | "-" | "*" | "+." | "-." | "*." | "/." | "~-" | "~-." | "**") ]
  | [ ("&&" | "||" | "^" | "@") ]
  | [ ("land" | "lor" | "lxor" | "lnot" | "lsl" | "lsr" | "asr") ]
  | [ ("float_of_int" | "int_of_float" | "truncate" | "string_of_int" | "string_of_float"
      | "string_of_bool" ) ]
  | [ "List";
      ( "length" | "rev" | "rev_append" | "cons" | "mem" | "memq" | "exists" | "for_all"
      | "filter" | "concat" | "append" | "is_empty" ) ]
  | [ "Array"; ("length" | "make" | "copy" | "to_list" | "of_list" | "unsafe_get" | "unsafe_set") ]
  | [ "String"; ("length" | "concat" | "equal" | "compare" | "trim" | "uppercase_ascii" | "lowercase_ascii") ]
  | [ "Option"; ("is_some" | "is_none" | "value" | "some" | "none" | "equal" | "to_list") ]
  | [ "Int"; _ ] | [ "Bool"; _ ] | [ "Char"; "code" ]
  | [ "Float"; ("of_int" | "to_int" | "equal" | "compare" | "add" | "sub" | "mul" | "abs" | "max" | "min") ]
  | [ "Printf"; "sprintf" ] | [ "Format"; "sprintf" ]
  | [ "Buffer";
      ("create" | "add_string" | "add_char" | "add_buffer" | "contents" | "length" | "clear" | "reset") ]
  | [ "Hashtbl";
      ("create" | "add" | "replace" | "mem" | "find_opt" | "remove" | "reset" | "clear" | "length") ]
  | [ "Queue"; ("create" | "add" | "push" | "is_empty" | "length" | "clear") ]
  | [ "Fun"; "id" ] | [ "Filename"; ("concat" | "basename" | "dirname" | "remove_extension") ]
  -> true
  | _ -> false

(* Calls that park the domain: never acceptable while holding a deque
   or pool mutex. *)
let blocking_head = function
  | [ "Unix"; _ ] -> true
  | [ "Domain"; "join" ] | [ "Thread"; "join" ] | [ "Event"; _ ] -> true
  | [ ("input_line" | "read_line" | "input" | "really_input") ] -> true
  | _ -> false

(* Stdlib container combinators run their function arguments to
   completion before returning, so a lambda argument executes inline
   under whatever locks/resources the caller holds. *)
let inline_combinator = function
  | [ ("List" | "Array" | "Seq" | "Option" | "Result" | "Either" | "Hashtbl" | "Queue"
      | "Stack" | "String" | "Buffer" | "Fun" | "Sys"); _ ] -> true
  | _ -> false

let is_false_construct e =
  match e.exp_desc with
  | Texp_construct (_, cd, _) -> cd.Types.cstr_name = "false"
  | _ -> false

let value_pat_idents p = List.map fst (Callgraph.pattern_idents p)

let binding_name vb =
  match value_pat_idents vb.vb_pat with id :: _ -> Ident.name id | [] -> "_"

let is_function e = match e.exp_desc with Texp_function _ -> true | _ -> false

let iter_exprs ~f e =
  let it = Checks.on_exprs f in
  it.expr it e

(* Summary of a local let-bound lambda, keyed by the unique name of its
   ident: can a call raise, what does a call release (rule-specific),
   and which local idents does it read (with everything the local
   helpers it reads capture). *)
type lsum = { s_may_raise : bool; s_releases : S.t; s_captures : S.t }

(* Can calling this head raise?  A local lambda answers from its summary;
   one being summarized is pre-seeded as non-raising so self-recursion
   does not poison its own summary. *)
let callee_may_raise ~locals p comps =
  is_raise_head comps
  || (not (safe_head comps))
     &&
     match p with
     | Path.Pident id -> (
       match Hashtbl.find_opt locals (Ident.unique_name id) with
       | Some s -> s.s_may_raise
       | None -> true)
     | _ -> true

let expr_may_raise ~locals e =
  let flag = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_assert (cond, _) when is_false_construct cond -> ()
          | Texp_assert _ -> flag := true
          | Texp_match (_, _, Partial) -> flag := true
          | Texp_function { partial = Partial; _ } -> flag := true
          | Texp_letop _ -> flag := true
          | Texp_apply (f, _) -> (
            match head_of f with
            | Some (p, comps) -> if callee_may_raise ~locals p comps then flag := true
            | None -> flag := true)
          | _ -> ());
          match e.exp_desc with
          | Texp_assert (cond, _) when is_false_construct cond -> ()
          | _ -> Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !flag

let local_helper ~locals e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Hashtbl.find_opt locals (Ident.unique_name id)
  | _ -> None

(* Does this application (callee plus the lambdas and local helpers a
   combinator would run) potentially raise? *)
let app_may_raise ~locals p comps arg_exprs =
  callee_may_raise ~locals p comps
  || List.exists
       (fun a ->
         if is_function a then expr_may_raise ~locals a
         else match local_helper ~locals a with Some s -> s.s_may_raise | None -> false)
       arg_exprs

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A record expression's subexpressions: the copied record, then the
   overridden fields. *)
let record_parts extended fields =
  Option.to_list extended
  @ List.filter_map
      (function _, Overridden (_, e) -> Some e | _, Kept _ -> None)
      (Array.to_list fields)

(* The [~finally] and the thunk of a [Fun.protect] application. *)
let protect_args args =
  ( List.find_map (function Asttypes.Labelled "finally", e -> e | _ -> None) args,
    List.find_map (function Asttypes.Nolabel, e -> e | _ -> None) args )

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* ---------- R6 and R7: one acquire/release walk ---------- *)

(* A let-bound resource (R7), held under the unique name of its ident. *)
type resource = { r_key : string; r_name : string; r_kind : string; r_open : Location.t }

(* Per top-level binding: the findings, the local lambda summaries, the
   tracked resources, those that escaped (returned, stored, captured by
   a lambda handed to unknown code: their lifetime belongs to the
   surrounding protocol), and each resource's first raise point. *)
type ctx = {
  file : string;
  mutable findings : Finding.t list;
  locals : (string, lsum) Hashtbl.t;
  tracked : (string, resource) Hashtbl.t;
  mutable escaped : S.t;
  leaks : (string, string * int) Hashtbl.t;
}

(* Why a path can leave without falling through. *)
type cause =
  | Partial_match
  | Assert
  | Binding_operator
  | Raise of string list  (** [raise], [failwith], ... *)
  | Call of string list  (** any other call that can raise *)
  | Protect_body  (** a [Fun.protect] body that is not a literal lambda *)

(* What the walk tells a rule. *)
type event =
  | Exposed of cause * S.t  (** held, unprotected and not escaped at a raise point *)
  | Diverges of S.t  (** held on some paths out of a merge but not others *)
  | Unbalanced of S.t * S.t  (** held before and after one loop iteration *)
  | Returns of S.t  (** held when a lambda returns, beyond what it held on entry *)
  | Finishes of string * S.t  (** held when this top-level binding finishes *)
  | Leaks of resource * string * int  (** at scope end: the first raise point *)
  | Unclosed of resource  (** at scope end: still open on some path *)

(* What a rule makes of a call head: it moves the held set (acquire,
   release), or it is an ordinary call, one that never raises for this
   rule or one that may. *)
type head = Moves of S.t | Never_raises | Ordinary

type rule = {
  id : string;
  acquires : value_binding -> resource option;  (** let-bound resources *)
  head : ctx -> Location.t -> protected:S.t -> S.t -> string list -> expression list -> head;
  releases_in : expression -> S.t;  (** what a helper or finalizer releases *)
  join : S.t -> S.t -> S.t;  (** merge of the paths out of a branch *)
  report : ctx -> Location.t -> event -> unit;
}

let emit ctx ~rule ~loc fmt =
  Printf.ksprintf
    (fun message ->
      ctx.findings <-
        Finding.make ~rule ~severity:Finding.Error ~file:ctx.file ~loc message :: ctx.findings)
    fmt

(* The unique names [e] reads, with everything the local helpers among
   them capture. *)
let captures ctx e =
  let direct = ref S.empty in
  iter_exprs e ~f:(fun e ->
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> direct := S.add (Ident.unique_name id) !direct
      | _ -> ());
  S.fold
    (fun n acc ->
      match Hashtbl.find_opt ctx.locals n with Some s -> S.union s.s_captures acc | None -> acc)
    !direct !direct

let tracked_key ctx e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem ctx.tracked (Ident.unique_name id) ->
    Some (Ident.unique_name id)
  | _ -> None

let summarize rule ctx vb =
  match value_pat_idents vb.vb_pat with
  | [] -> ()
  | id :: _ ->
    let key = Ident.unique_name id and e = vb.vb_expr in
    Hashtbl.replace ctx.locals key
      { s_may_raise = false; s_releases = S.empty; s_captures = S.empty };
    Hashtbl.replace ctx.locals key
      {
        s_may_raise = expr_may_raise ~locals:ctx.locals e;
        s_releases = rule.releases_in e;
        s_captures = captures ctx e;
      }

(* Symbolic walk of one top-level binding.  The state is the set of
   things held on the current path (lock names for R6, resource keys for
   R7); [None] means the path cannot fall through (raise or dead code).
   [protected] carries what a surrounding [Fun.protect] finalizer is
   guaranteed to release.  A lambda a stdlib combinator runs is walked
   in place from the caller's state; any other lambda is walked as a
   function of its own from the empty state, and the resources it
   captures escape.  A let-bound helper behaves the same: called
   directly (or by a combinator) its summary applies, handed to unknown
   code its captures escape. *)
let check rule ~file vb =
  let ctx =
    {
      file;
      findings = [];
      locals = Hashtbl.create 8;
      tracked = Hashtbl.create 8;
      escaped = S.empty;
      leaks = Hashtbl.create 8;
    }
  in
  let helper = local_helper ~locals:ctx.locals in
  let escape names =
    ctx.escaped <- S.union ctx.escaped (S.filter (Hashtbl.mem ctx.tracked) names)
  in
  let exit_point loc cause held protected =
    let exposed = S.diff (S.diff held protected) ctx.escaped in
    if not (S.is_empty exposed) then rule.report ctx loc (Exposed (cause, exposed))
  in
  let scope_end result r =
    if not (S.mem r.r_key ctx.escaped) then
      match (Hashtbl.find_opt ctx.leaks r.r_key, result) with
      | Some (callee, line), _ -> rule.report ctx r.r_open (Leaks (r, callee, line))
      | None, Some held when S.mem r.r_key held -> rule.report ctx r.r_open (Unclosed r)
      | None, _ -> ()
  in
  let rec walk protected held e : S.t option =
    let loc = e.exp_loc in
    match e.exp_desc with
    | Texp_ident (Path.Pident _, _, _) ->
      escape (captures ctx e);
      Some held
    | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_extension_constructor _ ->
      Some held
    | Texp_unreachable -> None
    | Texp_let (_, vbs, body) ->
      let introduced = ref [] in
      let after =
        List.fold_left
          (fun acc vb ->
            match acc with
            | None -> None
            | Some h when is_function vb.vb_expr ->
              summarize rule ctx vb;
              lambda_body protected S.empty vb.vb_expr;
              Some h
            | Some h -> (
              let resource = rule.acquires vb in
              match (walk protected h vb.vb_expr, resource) with
              | Some h, Some r ->
                Hashtbl.replace ctx.tracked r.r_key r;
                introduced := r :: !introduced;
                Some (S.add r.r_key h)
              | after, _ -> after))
          (Some held) vbs
      in
      let result = Option.bind after (fun h -> walk protected h body) in
      List.iter (scope_end result) (List.rev !introduced);
      Option.map (fun h -> List.fold_left (fun h r -> S.remove r.r_key h) h !introduced) result
    | Texp_function _ ->
      deferred protected e;
      Some held
    | Texp_lazy body ->
      deferred protected body;
      Some held
    | Texp_apply (f, args) -> apply protected held loc f args
    | Texp_match (scrut, cases, partial) ->
      Option.bind (walk protected held scrut) (fun h ->
          if partial = Partial then exit_point loc Partial_match h protected;
          merge loc (List.map (fun c -> walk_case protected h c) cases))
    | Texp_try (body, handlers) ->
      let rb = walk protected held body in
      merge loc (rb :: List.map (fun c -> walk_case protected held c) handlers)
    | Texp_ifthenelse (c, t, eo) ->
      Option.bind (walk protected held c) (fun h ->
          let re = match eo with Some e -> walk protected h e | None -> Some h in
          merge loc [ walk protected h t; re ])
    | Texp_sequence (a, b) -> walk_list protected held [ a; b ]
    | Texp_while (c, body) ->
      Option.iter (fun h -> iterate protected loc h body) (walk protected held c);
      Some held
    | Texp_for (_, _, lo, hi, _, body) ->
      Option.iter (fun h -> iterate protected loc h body) (walk_list protected held [ lo; hi ]);
      Some held
    | Texp_assert (cond, _) when is_false_construct cond -> None
    | Texp_assert (cond, _) ->
      exit_point loc Assert held protected;
      walk protected held cond
    | Texp_tuple es | Texp_array es | Texp_construct (_, _, es) -> walk_list protected held es
    | Texp_variant (_, eo) -> walk_list protected held (Option.to_list eo)
    | Texp_record { fields; extended_expression; _ } ->
      walk_list protected held (record_parts extended_expression fields)
    | Texp_field (b, _, _) -> walk protected held b
    | Texp_setfield (b, _, _, v) -> walk_list protected held [ b; v ]
    | Texp_letmodule (_, _, _, _, body) | Texp_letexception (_, body) | Texp_open (_, body) ->
      walk protected held body
    | Texp_letop { let_; ands; body; _ } ->
      Option.bind
        (walk_list protected held (List.map (fun bop -> bop.bop_exp) (let_ :: ands)))
        (fun h ->
          exit_point loc Binding_operator h protected;
          walk protected h body.c_rhs)
    | _ -> Some held
  and walk_case : type k. S.t -> S.t -> k case -> S.t option =
   fun protected held c ->
    let after_guard = match c.c_guard with Some g -> walk protected held g | None -> Some held in
    Option.bind after_guard (fun h -> walk protected h c.c_rhs)
  and walk_list protected held es =
    List.fold_left (fun acc e -> Option.bind acc (fun h -> walk protected h e)) (Some held) es
  and merge loc results =
    match List.filter_map Fun.id results with
    | [] -> None
    | first :: rest ->
      let union = List.fold_left S.union first rest in
      let inter = List.fold_left S.inter first rest in
      if not (S.equal union inter) then rule.report ctx loc (Diverges (S.diff union inter));
      Some (List.fold_left rule.join first rest)
  and iterate protected loc held body =
    match walk protected held body with
    | Some after when not (S.equal after held) -> rule.report ctx loc (Unbalanced (held, after))
    | _ -> ()
  (* A lambda's body (through currying) walked from [entry]; what it
     holds on return beyond [entry] is reported. *)
  and lambda_body protected entry e =
    match e.exp_desc with
    | Texp_function { cases; _ } -> List.iter (fun c -> lambda_body protected entry c.c_rhs) cases
    | _ -> (
      match walk protected entry e with
      | Some h when not (S.subset h entry) -> rule.report ctx e.exp_loc (Returns (S.diff h entry))
      | _ -> ())
  and deferred protected e =
    escape (captures ctx e);
    lambda_body protected S.empty e
  and apply protected held loc f args =
    let arg_exprs = List.filter_map snd args in
    match head_of f with
    | None -> walk_list protected held (f :: arg_exprs)
    | Some (_, [ "Fun"; "protect" ]) -> fun_protect protected held loc args
    | Some (p, comps) -> (
      match rule.head ctx loc ~protected held comps arg_exprs with
      | Moves h -> Some h
      | (Never_raises | Ordinary) as kind ->
        let inline = inline_combinator comps in
        List.iter
          (fun a ->
            if is_function a then
              if inline then lambda_body protected held a else deferred protected a)
          arg_exprs;
        let walked a =
          not
            (is_function a || tracked_key ctx a <> None
            || (inline && helper a <> None))
        in
        Option.bind (walk_list protected held (List.filter walked arg_exprs)) (fun h ->
            let h = match helper f with Some s -> S.diff h s.s_releases | None -> h in
            if kind = Ordinary && app_may_raise ~locals:ctx.locals p comps arg_exprs then
              exit_point loc (if is_raise_head comps then Raise comps else Call comps) h protected;
            if is_raise_head comps then None else Some h))
  and fun_protect protected held loc args =
    let finally, thunk = protect_args args in
    let fin =
      match finally with
      | Some fe -> (match helper fe with Some s -> s.s_releases | None -> rule.releases_in fe)
      | None -> S.empty
    in
    (match finally with
    | Some ({ exp_desc = Texp_function _; _ } as fe) -> lambda_body protected S.empty fe
    | _ -> ());
    match thunk with
    | Some { exp_desc = Texp_function { cases = [ c ]; _ }; _ } ->
      Option.map (fun h -> S.diff h fin) (walk (S.union protected fin) held c.c_rhs)
    | _ ->
      (* The body is an ident or a partial application: it may raise
         (a local helper unless its summary says otherwise), but the
         finalizer's releases are covered. *)
      let body = Option.bind thunk helper in
      let held = match body with Some s -> S.diff held s.s_releases | None -> held in
      if Option.fold ~none:true ~some:(fun s -> s.s_may_raise) body then
        exit_point loc Protect_body held (S.union protected fin);
      Some (S.diff held fin)
  in
  (match vb.vb_expr.exp_desc with
  | Texp_function _ -> lambda_body S.empty S.empty vb.vb_expr
  | _ -> (
    match walk S.empty S.empty vb.vb_expr with
    | Some h when not (S.is_empty h) -> rule.report ctx vb.vb_loc (Finishes (binding_name vb, h))
    | _ -> ()));
  ctx.findings

(* ---------- R6: lock discipline ---------- *)

(* Normalized spelling of a mutex expression, the lock identity of the
   R6 state ([pool.mutex], [d.dq_mutex], a bare binding name...). *)
let rec lock_name e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> dotted (Callgraph.normalize p)
  | Texp_field (b, _, ld) -> lock_name b ^ "." ^ ld.Types.lbl_name
  | _ -> Printf.sprintf "<mutex@%d>" e.exp_loc.Location.loc_start.Lexing.pos_lnum

let held_str held = String.concat ", " (S.elements held)

let deque_note held =
  if S.exists (fun h -> has_substring h "dq_") held then " (a deque mutex: stealers spin on it)"
  else ""

let r6_head ctx loc ~protected held comps args =
  let emit fmt = emit ctx ~rule:"R6" ~loc fmt in
  match (comps, args) with
  | [ "Mutex"; "lock" ], m :: _ ->
    let name = lock_name m in
    if S.mem name held then begin
      emit "double lock of %s: it is already held on this path" name;
      Moves held
    end
    else begin
      if not (S.is_empty held) then
        emit
          "acquiring %s while already holding %s%s; nested acquisition blocks other domains \
           and risks deadlock"
          name (held_str held) (deque_note held);
      Moves (S.add name held)
    end
  | [ "Mutex"; "unlock" ], m :: _ -> Moves (S.remove (lock_name m) held)
  | [ "Condition"; "wait" ], [ _; m ] ->
    let name = lock_name m in
    if not (S.mem name held) then
      emit
        "Condition.wait on %s which is not held on this path; wait must be called with the \
         mutex locked"
        name;
    let others = S.remove name held in
    let exposed = S.diff others protected in
    if not (S.is_empty exposed) then
      emit "Condition.wait parks the domain while still holding %s%s" (held_str exposed)
        (deque_note others);
    Moves held
  | _ -> Ordinary

let unlocks_in e =
  let acc = ref S.empty in
  iter_exprs e ~f:(fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
        match (head_of f, List.filter_map snd args) with
        | Some (_, [ "Mutex"; "unlock" ]), m :: _ -> acc := S.add (lock_name m) !acc
        | _ -> ())
      | _ -> ());
  !acc

let r6_report ctx loc event =
  let emit fmt = emit ctx ~rule:"R6" ~loc fmt in
  match event with
  | Exposed (Partial_match, h) ->
    emit
      "partial match can raise Match_failure while %s is held; make the match total or release \
       first"
      (held_str h)
  | Exposed (Assert, h) ->
    emit "assert can raise Assert_failure while %s is held; release first or use Fun.protect"
      (held_str h)
  | Exposed (Binding_operator, h) ->
    emit
      "binding operator can short-circuit while %s is held; release before the let* chain or \
       use Fun.protect"
      (held_str h)
  | Exposed (Raise _, h) ->
    emit "raising while %s is held leaks the lock; release first or use Fun.protect" (held_str h)
  | Exposed (Call comps, h) when blocking_head comps ->
    emit "blocking call %s while holding %s%s" (dotted comps) (held_str h) (deque_note h)
  | Exposed (Call comps, h) ->
    emit
      "call to %s can raise while %s is held, leaking the lock; release first or use \
       Fun.protect"
      (dotted comps) (held_str h)
  | Exposed (Protect_body, h) ->
    emit "Fun.protect body can raise while %s is held and the finalizer does not release it"
      (held_str h)
  | Diverges h ->
    emit
      "%s held on some paths out of this branch but not others; every path must release the \
       same locks"
      (held_str h)
  | Unbalanced (before, after) ->
    emit "lock state changes across a loop iteration (%s vs %s); each iteration must be balanced"
      (held_str before) (held_str after)
  | Returns h ->
    emit "%s is still held when this function returns; release on every path or use Fun.protect"
      (held_str h)
  | Finishes (name, h) ->
    emit "%s is still held when %s finishes evaluating; release on every path" (held_str h) name
  | Leaks _ | Unclosed _ -> () (* R6 binds no resources *)

let r6 =
  {
    id = "R6";
    acquires = (fun _ -> None);
    head = r6_head;
    releases_in = unlocks_in;
    join = S.inter;
    report = r6_report;
  }

(* ---------- R7: resource lifetime ---------- *)

let open_kind comps =
  let opens s = String.length s >= 5 && String.sub s 0 5 = "open_" in
  match comps with
  | [ "Unix"; "openfile" ] -> Some "file descriptor"
  | [ "Unix"; "socket" ] -> Some "socket"
  | [ "In_channel"; s ] when opens s -> Some "input channel"
  | [ ("open_in" | "open_in_bin" | "open_in_gen") ] -> Some "input channel"
  | [ "Out_channel"; s ] when opens s -> Some "output channel"
  | [ ("open_out" | "open_out_bin" | "open_out_gen") ] -> Some "output channel"
  | _ -> None

let close_head = function
  | [ "Unix"; "close" ]
  | [ ("close_in" | "close_out" | "close_in_noerr" | "close_out_noerr") ]
  | [ "In_channel"; "close" ]
  | [ "Out_channel"; ("close" | "close_noerr") ] -> true
  | _ -> false

(* What an expression closes: the idents it passes to a close function,
   and the fd arrays it hands to [Array.iter] with a closer - a close
   function itself ([Array.iter Unix.close fds]) or a per-element
   wrapper lambda that closes. *)
let rec closes_in e =
  let acc = ref S.empty in
  iter_exprs e ~f:(fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
        match (head_of f, List.filter_map snd args) with
        | Some (_, comps), { exp_desc = Texp_ident (Path.Pident id, _, _); _ } :: _
          when close_head comps ->
          acc := S.add (Ident.unique_name id) !acc
        | ( Some (_, [ "Array"; "iter" ]),
            [ closer; { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ] )
          when closer_closes closer ->
          acc := S.add (Ident.unique_name id) !acc
        | _ -> ())
      | _ -> ());
  !acc

and closer_closes c =
  (match head_of c with Some (_, comps) -> close_head comps | None -> false)
  || (is_function c && not (S.is_empty (closes_in c)))

(* The open a let binding makes, if any: a single ident bound to an
   open call; the campaign's fd-per-shard [Array.init n (fun i ->
   ...Unix.openfile...)], whose resource is the whole array, reported
   at the openfile inside the lambda; or the fd of a [Unix.accept]
   pair. *)
let r7_acquires vb =
  let open_at e =
    match e.exp_desc with
    | Texp_apply (f, _) -> (
      match head_of f with
      | Some (_, comps) -> Option.map (fun kind -> (kind, e.exp_loc)) (open_kind comps)
      | None -> None)
    | _ -> None
  in
  let rec tail e =
    match e.exp_desc with
    | Texp_sequence (_, b) | Texp_let (_, _, b) | Texp_open (_, b) -> tail b
    | _ -> Option.map snd (open_at e)
  in
  let resource id kind loc =
    Some { r_key = Ident.unique_name id; r_name = Ident.name id; r_kind = kind; r_open = loc }
  in
  match (value_pat_idents vb.vb_pat, vb.vb_expr.exp_desc) with
  | [ id ], Texp_apply (f, args) -> (
    match (open_at vb.vb_expr, head_of f, List.filter_map snd args) with
    | Some (kind, loc), _, _ -> resource id kind loc
    | None, Some (_, [ "Array"; "init" ]), [ _; { exp_desc = Texp_function { cases = [ c ]; _ }; _ } ]
      ->
      Option.bind (tail c.c_rhs) (resource id "file descriptors")
    | _ -> None)
  | [], Texp_apply (f, _) -> (
    match (vb.vb_pat.pat_desc, head_of f) with
    | Tpat_tuple ({ pat_desc = Tpat_var (id, _); _ } :: _), Some (_, [ "Unix"; "accept" ]) ->
      resource id "accepted socket" vb.vb_expr.exp_loc
    | _ -> None)
  | _ -> None

let r7_head ctx _ ~protected:_ held comps args =
  match (comps, args) with
  | comps, a :: _ when close_head comps -> (
    match tracked_key ctx a with Some r -> Moves (S.remove r held) | None -> Never_raises)
  | [ "Array"; "iter" ], [ closer; a ] when closer_closes closer -> (
    match tracked_key ctx a with Some r -> Moves (S.remove r held) | None -> Ordinary)
  | _ -> Ordinary

(* A leak is recorded at the first raise point that exposes the
   resource and reported at the open, where the fix goes. *)
let r7_report ctx loc event =
  match event with
  | Exposed (cause, exposed) -> (
    let callee =
      match cause with
      | Partial_match -> None
      | Assert -> Some "assert"
      | Binding_operator -> Some "the binding operator (it can short-circuit)"
      | Raise comps | Call comps -> Some (dotted comps)
      | Protect_body -> Some "the Fun.protect body"
    in
    match callee with
    | Some callee ->
      S.iter
        (fun r ->
          if not (Hashtbl.mem ctx.leaks r) then Hashtbl.add ctx.leaks r (callee, line_of loc))
        exposed
    | None -> ())
  | Leaks (r, callee, line) ->
    emit ctx ~rule:"R7" ~loc
      "%s %s leaks if %s (line %d) raises before the close; close it from a Fun.protect \
       finalizer or use a with_open_* combinator"
      r.r_kind r.r_name callee line
  | Unclosed r ->
    emit ctx ~rule:"R7" ~loc "%s %s is not closed on every path to the end of its scope" r.r_kind
      r.r_name
  | Diverges _ | Unbalanced _ | Returns _ | Finishes _ -> ()

let r7 =
  {
    id = "R7";
    acquires = r7_acquires;
    head = r7_head;
    releases_in = closes_in;
    join = S.union;
    report = r7_report;
  }

(* ---------- R1': interprocedural determinism taint ---------- *)

type taint = {
  t_construct : string;
  t_seed_file : string;
  t_seed_line : int;
  t_path : string list;  (** def keys from this def down to the seed holder *)
  t_site : Location.t option;  (** [None] for the directly-seeded def itself *)
}

(* Seed at direct construct uses (the walk Checks' R1 reports them
   with), propagate caller-ward over the call graph (breadth-first, so
   the reported chain is a shortest path), and report every
   transitively-tainted definition at its first tainted call site.
   Seeds inside allowlisted files never start taint at all: the
   allowlist suppresses by root cause, so sanctioned wall-clock use (the
   search deadline) does not indict its callers. *)
let r1_taint r1_meta ~resolve graph =
  let n = Array.length graph.Callgraph.defs in
  let findings = ref [] in
  let uses = ref [] in
  let seeds = Array.make n None in
  Array.iteri
    (fun i (d : Callgraph.def) ->
      let file = d.Callgraph.def_file in
      match Rules.applicability r1_meta file with
      | Rules.Out_of_scope -> ()
      | app -> (
        match (app, Checks.seeds ~resolve:(resolve file) d.Callgraph.def_expr) with
        | Rules.Applies, seed :: _ -> seeds.(i) <- Some seed
        | Rules.Allowlisted prefix, _ :: _ -> uses := ("R1", prefix) :: !uses
        | _ -> ()))
    graph.Callgraph.defs;
  let callers = Array.make n [] in
  Array.iteri
    (fun i (d : Callgraph.def) ->
      List.iter (fun (j, site) -> callers.(j) <- (i, site) :: callers.(j)) (Callgraph.calls graph d))
    graph.Callgraph.defs;
  Array.iteri (fun j l -> callers.(j) <- List.rev l) callers;
  let taint = Array.make n None in
  let q = Queue.create () in
  Array.iteri
    (fun i seed ->
      match seed with
      | None -> ()
      | Some (c, loc) ->
        taint.(i) <-
          Some
            {
              t_construct = c;
              t_seed_file = graph.Callgraph.defs.(i).Callgraph.def_file;
              t_seed_line = line_of loc;
              t_path = [ graph.Callgraph.defs.(i).Callgraph.def_key ];
              t_site = None;
            };
        Queue.add i q)
    seeds;
  while not (Queue.is_empty q) do
    let j = Queue.pop q in
    match taint.(j) with
    | None -> ()
    | Some t ->
      List.iter
        (fun (i, site) ->
          match taint.(i) with
          | Some _ -> ()
          | None ->
            taint.(i) <-
              Some
                {
                  t with
                  t_path = graph.Callgraph.defs.(i).Callgraph.def_key :: t.t_path;
                  t_site = Some site;
                };
            Queue.add i q)
        callers.(j)
  done;
  Array.iteri
    (fun i t ->
      match t with
      | Some { t_construct; t_seed_file; t_seed_line; t_path; t_site = Some site } -> (
        let d = graph.Callgraph.defs.(i) in
        match Rules.applicability r1_meta d.Callgraph.def_file with
        | Rules.Applies ->
          findings :=
            Finding.make ~rule:"R1" ~severity:Finding.Error ~file:d.Callgraph.def_file
              ~loc:site
              (Printf.sprintf
                 "call path %s reaches %s (seeded at %s:%d); deterministic library code must \
                  not depend on wall-clock or unordered iteration, however indirectly"
                 (String.concat " -> " t_path)
                 t_construct t_seed_file t_seed_line)
            :: !findings
        | Rules.Allowlisted prefix -> uses := ("R1", prefix) :: !uses
        | Rules.Out_of_scope -> ())
      | _ -> ())
    taint;
  (!findings, !uses)

(* ---------- entry point ---------- *)

let analyze (typed : Typed_load.typed_file list) : report =
  let graph = Callgraph.build typed in
  let resolvers = Hashtbl.create 64 in
  List.iter
    (fun { Typed_load.file; structure } ->
      Hashtbl.replace resolvers file (Checks.resolver structure))
    typed;
  let taint_findings, taint_uses =
    match Rules.find "R1" with
    | Some r1 -> r1_taint r1 ~resolve:(Hashtbl.find resolvers) graph
    | None -> ([], [])
  in
  let per_file =
    List.concat_map
      (fun { Typed_load.file; structure } ->
        List.map
          (fun rule ->
            Rules.gate rule.id ~file (fun () ->
                List.concat_map (check rule ~file) (Checks.structure_roots structure)))
          [ r6; r7 ])
      typed
  in
  {
    findings = List.sort_uniq Finding.compare (taint_findings @ List.concat_map fst per_file);
    allow_uses = List.sort_uniq compare (taint_uses @ List.concat_map snd per_file);
  }
