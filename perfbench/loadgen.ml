(* The load generator: one process, one thread, at most [conns] Unix-socket
   connections to a spawned [elsdb serve], each with at most one request
   outstanding. A select loop paces the open loop from each request's due
   time, so a stall is charged to every request it delays. *)

(* --- the server process --- *)

type server = { pid : int; out_path : string }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let spawn ~exe ~csvs ~domains ~sock ~dir =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let out_path = Filename.concat dir "serve.out" in
  let out = Unix.openfile out_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err =
    Unix.openfile (Filename.concat dir "serve.err") [ O_WRONLY; O_CREAT; O_TRUNC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let args =
    [|
      exe; "serve"; "--db"; "csv:" ^ String.concat ":" csvs; "--domains";
      string_of_int domains; "--socket"; sock; "--metrics"; "json";
    |]
  in
  let pid = Unix.create_process exe args null out err in
  List.iter Unix.close [ out; err; null ];
  { pid; out_path }

(* Every server ever spawned, so an early exit still stops them. *)
let spawned : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !spawned;
  spawned := []

(* --- line-oriented connections --- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let conn fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* Read what is available and return the complete lines, oldest first. *)
let recv_lines c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s (last + 1) (String.length s - last - 1);
    String.split_on_char '\n' (String.sub s 0 last)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Blocking request/response on an idle connection. *)
let roundtrip c line =
  send c line;
  let rec wait () = match recv_lines c with [] -> wait () | l :: _ -> l in
  wait ()

let health c = roundtrip c {|{"v":1,"id":"health","op":"health"}|}

(* Spawn, then poll until the socket accepts and answers [health]. Returns
   the server, an open connection, and the seconds from spawn to the
   health answer. *)
let start ~exe ~csvs ~domains ~sock ~dir =
  let t0 = Clock.now () in
  let server = spawn ~exe ~csvs ~domains ~sock ~dir in
  spawned := server.pid :: !spawned;
  let rec wait () =
    if Clock.now () -. t0 > 120. then failwith "server did not start";
    if not (alive server.pid) then failwith "server exited during start-up";
    match connect sock with
    | Some fd -> fd
    | None ->
      Unix.sleepf 0.0005;
      wait ()
  in
  let c = conn (wait ()) in
  ignore (health c);
  let setup_s = Clock.now () -. t0 in
  (server, c, setup_s)

(* SIGTERM drains the server; it then prints its metrics snapshot as the
   last stdout line. *)
let reap server =
  ignore (Unix.waitpid [] server.pid);
  spawned := List.filter (( <> ) server.pid) !spawned

let kill server =
  Unix.kill server.pid Sys.sigkill;
  reap server

let stop server =
  Unix.kill server.pid Sys.sigterm;
  let give_up = Clock.now () +. 30. in
  while alive server.pid && Clock.now () < give_up do
    Unix.sleepf 0.01
  done;
  if alive server.pid then failwith "server did not drain";
  spawned := List.filter (( <> ) server.pid) !spawned;
  let ic = open_in server.out_path in
  let rec last acc =
    match input_line ic with l -> last (Some l) | exception End_of_file -> acc
  in
  let l = last None in
  close_in ic;
  match Option.map Obs.Json.of_string l with
  | Some (Ok json) -> json
  | _ -> failwith "server printed no metrics snapshot"

(* --- /proc readings of the server --- *)

let clock_ticks = 100.

(* utime + stime in seconds. *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  (* Fields after the parenthesised command name; utime and stime are the
     12th and 13th of them. *)
  let rest =
    String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  let v = go () in
  close_in ic;
  v

(* --- phases --- *)

type sample = {
  idx : int;  (** position in the request stream *)
  due : float;
  free : float;  (** when the connection it went out on became free *)
  sent : float;
  recv : float;
  line : string;  (** the raw response *)
}

(* How late the generator itself sent a request: past its due time and
   past the moment a connection was free to carry it. *)
let generator_late x = x.sent -. Float.max x.due x.free

type pacing =
  | Open of float  (** requests per second, timed from the due time *)
  | Closed  (** next request as soon as a connection is free *)

(* Drive [conns] through one phase. [take ()] yields the next request's
   stream index and frame; requests stop being issued after [seconds], and
   the phase ends when all are answered. *)
let phase ~conns ~pacing ~seconds ~take () =
  let pending = Array.make (Array.length conns) None in
  let samples = ref [] in
  let issued = ref 0 in
  let t0 = Clock.now () in
  let free = Array.make (Array.length conns) t0 in
  let stop_at = t0 +. seconds in
  let due now =
    match pacing with
    | Open rate -> t0 +. (float_of_int !issued /. rate)
    | Closed -> now
  in
  let more now = due now < stop_at in
  let idle () = Array.exists Option.is_none pending in
  let busy () = Array.exists Option.is_some pending in
  while more (Clock.now ()) || busy () do
    Array.iteri
      (fun i p ->
        let now = Clock.now () in
        if p = None && more now && due now <= now then begin
          let due = due now in
          let idx, frame = take () in
          let sent = Clock.now () in
          send conns.(i) frame;
          pending.(i) <- Some (idx, due, free.(i), sent);
          incr issued
        end)
      pending;
    let fds =
      List.filteri (fun i _ -> pending.(i) <> None) (Array.to_list conns)
      |> List.map (fun c -> c.fd)
    in
    let now = Clock.now () in
    let timeout =
      if idle () && more now then Float.max 0. (due now -. now) else 1.
    in
    match Unix.select fds [] [] timeout with
    | [], _, _ -> ()
    | ready, _, _ ->
      let recv = Clock.now () in
      Array.iteri
        (fun i c ->
          if List.mem c.fd ready then
            match (recv_lines c, pending.(i)) with
            | [], _ -> ()
            | [ line ], Some (idx, due, free_at, sent) ->
              samples := { idx; due; free = free_at; sent; recv; line } :: !samples;
              pending.(i) <- None;
              free.(i) <- recv
            | _ -> failwith "unexpected response on a connection")
        conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (List.rev !samples, Clock.now () -. t0)

(* --- response fields read during a phase --- *)

(* Responses start with {"id":..., "ok":...}; finding the "ok" flag needs
   no full parse. *)
let ok line =
  let pat = {|"ok":true|} in
  let n = String.length pat in
  let rec go i =
    i + n <= String.length line && (String.sub line i n = pat || go (i + 1))
  in
  go 0
