type scope = All | Under of string list

type meta = {
  id : string;
  title : string;
  rationale : string;
  scope : scope;
  allow : (string * string) list;
}

(* The project rule book.  Scopes and allowlist entries are path
   prefixes relative to the scanned root, with ['/'] separators; an
   allowlist entry carries its justification so the rule book documents
   itself (and `lint --rules` can print it).  Allowlist entries must be
   live: an entry that suppresses nothing anywhere in the tree is
   reported as an A0 finding by the driver, so the book can never
   accumulate stale exemptions. *)
let all =
  [
    {
      id = "R1";
      title = "determinism";
      rationale =
        "Search, parallel fan-out and the persistent store promise bit-identical results at \
         every -j; wall-clock reads, self-seeded RNG and unordered Hashtbl iteration break \
         that promise silently.  The same taint propagates over the \
         intra-library call graph, so reaching a seed through any chain of helpers is a \
         finding at the offending call site.";
      scope = Under [ "lib/" ];
      allow =
        [
          ("lib/server/engine.ml", "staged search deadlines are real wall-clock budgets");
          ("lib/server/loadgen.ml", "the load generator reports real latency percentiles");
          ("lib/server/evloop/loop.ml",
           "the event loop's idle timeouts and shutdown grace are real wall-clock budgets, \
            and its connection table is walked through a sorted view");
        ];
    };
    {
      id = "R2";
      title = "forbidden constructs";
      rationale =
        "Obj.magic defeats the type system; Marshal bypasses the validating Codec layer that \
         keeps decoders total on mutated wire bytes; exit belongs to the binary, never to a \
         library.";
      scope = All;
      allow = [];
    };
    {
      id = "R3";
      title = "task purity";
      rationale =
        "Closures submitted to the Parallel fan-out entry points run on other domains; \
         mutating state captured from the enclosing scope races and destroys the determinism \
         contract (task i may only write its own result slot).";
      scope = All;
      allow = [];
    };
    {
      id = "R4";
      title = "crash safety";
      rationale =
        "The store's and corpus's atomic-replace protocol is fsync-then-rename; a rename \
         without a preceding fsync in the same function can publish a file whose blocks are \
         still in the page cache, losing the snapshot on power failure.";
      scope = Under [ "lib/store/"; "lib/corpus/" ];
      allow = [];
    };
    {
      id = "R5";
      title = "interface coverage";
      rationale =
        "Every library module must state its API in a .mli: it keeps internals private, makes \
         review diffs meaningful, and is where the determinism contracts are documented.";
      scope = Under [ "lib/" ];
      allow = [];
    };
    {
      id = "R6";
      title = "lock discipline";
      rationale =
        "The parallel runtime's mutexes guard the deques, the result list and the pool \
         protocol; a lock that is not released on every path (including raises), a double \
         lock of the same mutex, or a blocking call made while holding a deque mutex turns a \
         determinism engine into a deadlock engine.  Locks must be balanced on all paths or \
         released from a Fun.protect finalizer.";
      scope = Under [ "lib/parallel/" ];
      allow = [];
    };
    {
      id = "R7";
      title = "resource lifetime";
      rationale =
        "File descriptors and channels opened by library code must reach a close on every \
         path: a raise between open and close leaks the descriptor, and under the campaign's \
         fd-per-shard append pattern a few leaked bands exhaust the process limit.  Open-use-\
         close sequences that can raise must close from a Fun.protect finalizer (or use the \
         In_channel/Out_channel with_open_* combinators, which are safe by construction).  \
         Sockets are descriptors too: every Unix.socket and Unix.accept in the server stack \
         must reach Unix.close, or a few thousand abrupt client disconnects exhaust the \
         daemon's fd limit.";
      scope = Under [ "lib/" ];
      allow = [];
    };
  ]

let find id = List.find_opt (fun m -> m.id = id) all

let prefixed prefix path = String.starts_with ~prefix path

let in_scope meta path =
  match meta.scope with All -> true | Under dirs -> List.exists (fun d -> prefixed d path) dirs

(* Three-way applicability, so callers can tell "suppressed by an
   allowlist entry" (which must be recorded as a use of that entry) from
   "out of scope" (nothing to record). *)
type applicability = Applies | Allowlisted of string | Out_of_scope

let applicability meta path =
  if not (in_scope meta path) then Out_of_scope
  else
    match
      List.find_map (fun (prefix, _) -> if prefixed prefix path then Some prefix else None)
        meta.allow
    with
    | Some prefix -> Allowlisted prefix
    | None -> Applies

(* Run a rule's check over one file: its findings when the rule
   applies there, the allowlist entry's use when one swallowed them. *)
let gate id ~file check =
  match Option.map (fun meta -> applicability meta file) (find id) with
  | None | Some Out_of_scope -> ([], [])
  | Some Applies -> (check (), [])
  | Some (Allowlisted prefix) -> ([], if check () = [] then [] else [ (id, prefix) ])

let describe () =
  String.concat "\n"
    (List.map
       (fun m ->
         let scope =
           match m.scope with All -> "everywhere" | Under dirs -> String.concat ", " dirs
         in
         let allow =
           match m.allow with
           | [] -> ""
           | entries ->
             "\n"
             ^ String.concat "\n"
                 (List.map
                    (fun (prefix, why) -> Printf.sprintf "    allowed in %s: %s" prefix why)
                    entries)
         in
         Printf.sprintf "%s (%s; scope: %s)\n    %s%s" m.id m.title scope m.rationale allow)
       all)
