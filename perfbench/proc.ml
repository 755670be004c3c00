(* Child processes, /proc sampling and exit-path hygiene.

   Every daemon, socket and temp directory the benchmark creates is
   registered here; [cleanup] (run on normal exit, on any exception
   escaping [main], and on SIGINT/SIGTERM) kills and reaps the
   children and removes the files, so no exit path leaves anything
   behind. *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* ---------- cleanup registry ---------- *)

let children : int list ref = ref []
let dirs : string list ref = ref []

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill pid =
  (try Unix.kill pid Sys.sigcont with Unix.Unix_error _ -> ());
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid;
  children := List.filter (( <> ) pid) !children

let cleanup () =
  List.iter kill !children;
  List.iter (fun d -> try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ()) !dirs;
  dirs := []

let install_handlers () =
  at_exit cleanup;
  let on_signal _ = exit 2 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* A fresh scratch directory under [root], removed by [cleanup]. *)
let temp_dir ~root =
  let rec mk () =
    if not (Sys.file_exists root) then mk_parent root;
    let d = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
    rm_rf d;
    Unix.mkdir d 0o755;
    dirs := d :: !dirs;
    d
  and mk_parent p =
    if not (Sys.file_exists p) then begin
      mk_parent (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  mk ()

(* CPUs: with two or more allowed, the client keeps the first and every
   daemon gets the second, so that the load generator and the server
   never preempt each other. *)
external nth_allowed_cpu : int -> int = "perfbench_nth_allowed_cpu"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

let client_cpu = nth_allowed_cpu 0
let daemon_cpu = nth_allowed_cpu 1

let spawn ?(log = "/dev/null") ?(pinned = false) exe args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pin = pinned && daemon_cpu >= 0 in
  if pin then ignore (pin_cpu daemon_cpu);
  let pid =
    Fun.protect
      ~finally:(fun () ->
        if pin then ignore (pin_cpu client_cpu);
        Unix.close devnull;
        Unix.close out)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) devnull out out)
  in
  children := pid :: !children;
  pid

let alive pid = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false | exception Unix.Unix_error _ -> false

(* ---------- /proc sampling ---------- *)

let tids pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | a -> Array.to_list a |> List.filter_map int_of_string_opt |> List.sort compare
  | exception Sys_error _ -> []

(* On-CPU nanoseconds of one thread (schedstat). *)
let schedstat pid tid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/schedstat" pid tid) with
  | Some s -> (
    match String.split_on_char ' ' (String.trim s) with
    | run :: _ -> int_of_string run
    | [] -> 0)
  | None -> 0

(* On-CPU nanoseconds of every thread of [pid]. *)
let cpu_ns pid = List.fold_left (fun acc tid -> acc + schedstat pid tid) 0 (tids pid)

let kv_file path =
  match read_file path with
  | None -> []
  | Some s ->
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           match String.index_opt line ':' with
           | None -> None
           | Some i ->
             let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
             let v = match String.index_opt v ' ' with Some j -> String.sub v 0 j | None -> v in
             Option.map (fun n -> (String.sub line 0 i, n)) (int_of_string_opt v))

let field kvs k = Option.value ~default:0 (List.assoc_opt k kvs)

type thread_sample = { cpu_ns : int; syscr : int; syscw : int; wchar : int; ctxsw : int }

let zero = { cpu_ns = 0; syscr = 0; syscw = 0; wchar = 0; ctxsw = 0 }

let thread_sample pid tid =
  let io = kv_file (Printf.sprintf "/proc/%d/task/%d/io" pid tid) in
  let st = kv_file (Printf.sprintf "/proc/%d/task/%d/status" pid tid) in
  { cpu_ns = schedstat pid tid; syscr = field io "syscr"; syscw = field io "syscw"; wchar = field io "wchar";
    ctxsw = field st "voluntary_ctxt_switches" + field st "nonvoluntary_ctxt_switches" }

let add a b =
  { cpu_ns = a.cpu_ns + b.cpu_ns; syscr = a.syscr + b.syscr; syscw = a.syscw + b.syscw;
    wchar = a.wchar + b.wchar; ctxsw = a.ctxsw + b.ctxsw }

let sub a b =
  { cpu_ns = a.cpu_ns - b.cpu_ns; syscr = a.syscr - b.syscr; syscw = a.syscw - b.syscw;
    wchar = a.wchar - b.wchar; ctxsw = a.ctxsw - b.ctxsw }

(* A process snapshot: the loop thread (tid = pid) and every other
   thread (engine and pool domains) summed. *)
type sample = { loop : thread_sample; others : thread_sample }

let sample pid =
  List.fold_left
    (fun acc tid ->
      let s = thread_sample pid tid in
      if tid = pid then { acc with loop = s } else { acc with others = add acc.others s })
    { loop = zero; others = zero } (tids pid)

let delta a b = { loop = sub b.loop a.loop; others = sub b.others a.others }

let vm_hwm_kb pid = field (kv_file (Printf.sprintf "/proc/%d/status" pid)) "VmHWM"

(* Total bytes of the regular files under [path]. *)
let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR -> Array.fold_left (fun acc e -> acc + du (Filename.concat path e)) 0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

let copy_file src dst =
  Out_channel.with_open_bin dst (fun oc -> output_string oc (In_channel.with_open_bin src In_channel.input_all))

(* Wait for a child, sampling its threads' CPU every 10 ms.  Returns
   (exit code, user+sys CPU seconds of the whole process, CPU seconds of
   its threads other than the main one - the pool domains - up to their
   last sample). *)
let wait pid =
  let t0 = Unix.times () in
  let peak = Hashtbl.create 8 in
  let rec poll () =
    List.iter
      (fun tid ->
        if tid <> pid then
          Hashtbl.replace peak tid (max (schedstat pid tid) (Option.value ~default:0 (Hashtbl.find_opt peak tid))))
      (tids pid);
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> Unix.sleepf 0.01; poll ()
    | _, st -> st
  in
  let st = poll () in
  let t1 = Unix.times () in
  children := List.filter (( <> ) pid) !children;
  let cpu = t1.Unix.tms_cutime -. t0.Unix.tms_cutime +. (t1.Unix.tms_cstime -. t0.Unix.tms_cstime) in
  let workers = float_of_int (Hashtbl.fold (fun _ ns acc -> acc + ns) peak 0) /. 1e9 in
  let code = match st with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255 in
  (code, cpu, workers)
