module Budget = Gqkg_util.Budget
module Mclock = Gqkg_util.Mclock
module Epochs = Gqkg_graph.Epochs
module Snapshot = Gqkg_graph.Snapshot
module Semcache = Gqkg_core.Semcache

type config = {
  max_clients : int;
  workers : int;
  queue_depth : int;
  per_client_depth : int;
  default_timeout_ms : int option;
  default_max_states : int option;
  idle_timeout_ms : int;
  max_line_bytes : int;
  fault_trip_after_checks : int option;
  fault_drop_after : int option;
}

let default_config =
  {
    max_clients = 32;
    workers = 4;
    queue_depth = 64;
    per_client_depth = 8;
    default_timeout_ms = Some 10_000;
    default_max_states = None;
    idle_timeout_ms = 30_000;
    max_line_bytes = 1_048_576;
    fault_trip_after_checks = None;
    fault_drop_after = None;
  }

(* A blocked write to a client that stops reading fails after this. *)
let write_timeout_s = 5.0

(* The drain waits this long (2 s) for in-flight work before tripping it. *)
let drain_grace_ns = 2_000_000_000L

(* Pairs per response at most; ["truncated"] flags more. *)
let answer_limit = 10_000

type conn = {
  fd : Unix.file_descr;
  client : int;
  wlock : Mutex.t;
  dead : bool Atomic.t;
      (* set by [kill]: a write error, a drop injection or the drain;
         only the connection's own reader thread ever closes [fd] *)
  sent : int Atomic.t;
  inflight : int Atomic.t;
      (* requests admitted but not yet taken to completion by a worker;
         the idle reaper leaves the connection alone while > 0 *)
  last_activity : int64 Atomic.t;
      (* monotonic ns of the last read or delivered response — quiet
         clients awaiting a long answer are not "idle" *)
}

type job = { conn : conn; req : Jsonx.t; submitted_ns : int64 }

type t = {
  config : config;
  mgr : Epochs.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics : Metrics.t;
  queue : job Admission.t;
  stopping : bool Atomic.t;  (** drain requested: accept loop exits *)
  stop_lock : Mutex.t;  (** held by [stop]: a second call waits on it *)
  conns_lock : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  conn_threads : (int, Thread.t) Hashtbl.t;
      (** reader threads still running (or just about to exit); each
          entry is removed by its own thread's cleanup so a long-lived
          daemon does not retain one Thread.t per connection ever
          accepted.  [stop] joins whatever is still registered. *)
  mutable workers : Thread.t list;
  mutable accept_thread : Thread.t option;
  writer_lock : Mutex.t;  (** single-writer mutation discipline *)
  act_lock : Mutex.t;
  active : (int, Budget.t) Hashtbl.t;  (** budgets of in-flight requests *)
  next_client : int Atomic.t;
  next_req : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)

let echo_id req =
  match Jsonx.member "id" req with Some v -> [ ("id", v) ] | None -> []

let error_json ?(extra = []) ?(id = []) ~code ~message () =
  Jsonx.Obj
    ([ ("ok", Jsonx.Bool false); ("code", Jsonx.Str code);
       ("message", Jsonx.Str message) ]
    @ id @ extra)

(* One NDJSON frame: the reply and its newline rendered into one buffer. *)
let frame json =
  let buf = Buffer.create 256 in
  Jsonx.to_buffer buf json;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Mark the connection dead and wake its reader, blocked in [read], with
   EOF; the reader owns [fd] and closes it. *)
let kill conn =
  Atomic.set conn.dead true;
  try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ()

(* Whole-line writes under the connection's write lock so concurrent
   worker / reader responses never interleave mid-line.  A blocked
   write on a slow client fails via SO_SNDTIMEO instead of wedging the
   worker; any write error kills the connection.  Both kills below run
   under [wlock], which the reader's close also takes, so the fd cannot
   be closed and its number reused mid-shutdown. *)
let write_frame t conn s =
  Mutex.lock conn.wlock;
  let ok =
    if Atomic.get conn.dead then false
    else
      try
        (* counted before the bytes leave, so a client that has read a
           reply always finds it in [metrics] *)
        Metrics.incr_responses t.metrics;
        let len = String.length s in
        let off = ref 0 in
        while !off < len do
          let n = Unix.write_substring conn.fd s !off (len - !off) in
          if n <= 0 then raise Exit;
          off := !off + n
        done;
        true
      with _ ->
        kill conn;
        false
  in
  if ok then begin
    Atomic.set conn.last_activity (Mclock.now_ns ());
    let sent = Atomic.fetch_and_add conn.sent 1 + 1 in
    match t.config.fault_drop_after with
    | Some k when k > 0 && sent mod k = 0 ->
        (* deterministic fault injection: hard-drop the connection the
           way a crashing client would — no goodbye.  The soak test
           asserts the server survives this. *)
        Metrics.incr_injected_drops t.metrics;
        kill conn
    | _ -> ()
  end;
  Mutex.unlock conn.wlock;
  ok

let write_json t conn json = write_frame t conn (frame json)

(* ------------------------------------------------------------------ *)
(* Request execution (worker side): frame -> Request, response -> wire *)

let int_field req name =
  match Jsonx.member name req with None -> None | Some v -> Jsonx.int_opt v

(* Register the budget while the request runs so a graceful drain can
   cancel stragglers (they come back as sound Partial answers). *)
let with_active t budget f =
  let key = Atomic.fetch_and_add t.next_req 1 in
  Mutex.lock t.act_lock;
  Hashtbl.replace t.active key budget;
  Mutex.unlock t.act_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.act_lock;
      Hashtbl.remove t.active key;
      Mutex.unlock t.act_lock)
    f

let request_error ~id = function
  | Request.Parse_error _ as e -> error_json ~id ~code:"GQ042" ~message:(Request.error_message e) ()
  | (Request.Bad_length _ | Request.Negative_bound _) as e ->
      error_json ~id ~code:"GQ062" ~message:(Request.error_message e) ()
  | Request.Script_error { line; message } ->
      error_json ~id ~code:"GQ048" ~message:(Printf.sprintf "ops[%d]: %s" (line - 1) message) ()

(* The one wire renderer of a read response, in the protocol's field
   order. *)
let read_reply t ~id ~limit ~budget snap (r : Request.response) =
  let completeness =
    match r.diagnostic with
    | None -> [ ("complete", Jsonx.Bool true) ]
    | Some d ->
        Metrics.incr_trips t.metrics;
        [ ("complete", Jsonx.Bool false); ("diagnostic", Jsonx.of_diagnostic d) ]
  in
  let head op =
    (("ok", Jsonx.Bool true) :: ("op", Jsonx.Str op) :: id)
    @ [ ("epoch", Jsonx.int snap.Snapshot.epoch) ]
  in
  match r.answer with
  | Request.Pairs answer ->
      Jsonx.answer_frame (Jsonx.names snap) ~head:(head "query") ~limit answer
        ~tail:(("elapsed_ms", Jsonx.Num (Budget.elapsed_ms budget)) :: completeness)
  | Request.Path_count { length; count } ->
      let fields = [ ("length", Jsonx.int length); ("count", Jsonx.Num count) ] in
      frame (Jsonx.Obj (head "count" @ fields @ completeness))

let handle_read t req ~id op =
  match Option.bind (Jsonx.member "q" req) Jsonx.str with
  | None -> frame (error_json ~id ~code:"GQ062" ~message:(op ^ {| needs a "q" string field|}) ())
  | Some q ->
      let kind =
        if op = "query" then Request.Query { max_length = int_field req "max_length" }
        else Request.Count { length = Option.value (int_field req "length") ~default:3 }
      in
      let limit = Option.value (int_field req "limit") ~default:max_int in
      let limit = min answer_limit (max 0 limit) in
      let budget =
        Request.budget ?timeout_ms:t.config.default_timeout_ms
          ?max_states:t.config.default_max_states
          ?trip_after_checks:t.config.fault_trip_after_checks
          {
            Request.timeout_ms = int_field req "timeout_ms";
            max_states = int_field req "max_states";
            max_steps = int_field req "max_steps";
          }
      in
      with_active t budget (fun () ->
          Epochs.with_pinned t.mgr (fun snap ->
              match Request.eval ~use_cache:true ~budget snap { Request.q; kind } with
              | Ok r -> read_reply t ~id ~limit ~budget snap r
              | Error e -> frame (request_error ~id e)))

(* Mutations are atomic per request: either every op applies and one
   epoch is committed, or (on the first bad op) the whole overlay is
   abandoned — GQ048, base untouched, exactly the journal's replay
   semantics.  [writer_lock] serializes writers so every overlay is
   built on the current epoch (Epochs.commit enforces it). *)
let handle_mutate t req ~id =
  (* Every element must be a string: a non-string is refused by its
     index in the array as sent, before anything is applied. *)
  let rec script i acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> (
        match Jsonx.str v with
        | Some line -> script (i + 1) (line :: acc) rest
        | None -> Error (Printf.sprintf "ops[%d] is not a string script line" i))
  in
  let ops =
    match Jsonx.member "ops" req with
    | Some (Jsonx.Arr items) -> script 0 [] items
    | _ -> Error {|mutate needs an "ops" array of script lines|}
  in
  match ops with
  | Error message -> error_json ~id ~code:"GQ062" ~message ()
  | Ok lines -> (
      Mutex.lock t.writer_lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.writer_lock) @@ fun () ->
      match Request.mutate t.mgr lines with
      | Error e -> request_error ~id e
      | Ok m ->
          let epoch = (Epochs.snapshot t.mgr).Snapshot.epoch in
          let committed =
            if m.Request.commits = 0 then []
            else
              [
                ("columns_reused", Jsonx.int m.Request.reused);
                ("columns_rebuilt", Jsonx.int m.Request.rebuilt);
                ("live_epochs", Jsonx.int (List.length (Epochs.live_epochs t.mgr)));
              ]
          in
          Jsonx.Obj
            ([ ("ok", Jsonx.Bool true); ("op", Jsonx.Str "mutate") ]
            @ id
            @ [ ("applied", Jsonx.int m.Request.applied); ("epoch", Jsonx.int epoch) ]
            @ committed))

(* Anything unexpected becomes a structured GQ069 — a worker never
   crashes and a client never sees a backtrace. *)
let handle_job t (job : job) =
  let id = echo_id job.req in
  let resp =
    try
      match Option.bind (Jsonx.member "op" job.req) Jsonx.str with
      | Some ("query" | "count" as op) -> handle_read t job.req ~id op
      | Some "mutate" -> frame (handle_mutate t job.req ~id)
      | Some op ->
          frame (error_json ~id ~code:"GQ062" ~message:(Printf.sprintf "unknown op %S" op) ())
      | None -> frame (error_json ~id ~code:"GQ062" ~message:{|request needs an "op" field|} ())
    with exn ->
      frame (error_json ~id ~code:"GQ069" ~message:("internal error: " ^ Printexc.to_string exn) ())
  in
  let delivered = write_frame t job.conn resp in
  if delivered then
    Metrics.observe_latency_ms t.metrics
      (Mclock.ns_to_ms (Int64.sub (Mclock.now_ns ()) job.submitted_ns))

let worker_loop t =
  let rec loop () =
    match Admission.take t.queue with
    | None -> ()
    | Some job ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr job.conn.inflight)
          (fun () ->
            if not (Atomic.get job.conn.dead) then handle_job t job);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let num_clients t =
  Mutex.lock t.conns_lock;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.conns_lock;
  n

let metrics t =
  let snap = Epochs.snapshot t.mgr in
  Metrics.to_json t.metrics
    ~queue_depth:(Admission.depth t.queue)
    ~queue_peak:(Admission.peak t.queue)
    ~clients:(num_clients t) ~workers:t.config.workers
    ~epoch:snap.Snapshot.epoch
    ~live_epochs:(List.length (Epochs.live_epochs t.mgr))
    ~pins:(Epochs.pins t.mgr) ~cache:(Semcache.stats ())

(* ------------------------------------------------------------------ *)
(* Connection reader                                                   *)

(* One well-formed line in, one response out; ping/metrics answer
   inline (responsive even when the queue is full), everything else
   goes through admission. *)
let handle_line t conn line =
  if String.trim line = "" then ()
  else
    match Jsonx.parse line with
    | Error msg ->
        Metrics.incr_malformed t.metrics;
        ignore
          (write_json t conn
             (error_json ~code:"GQ062" ~message:("malformed request: " ^ msg) ()))
    | Ok req -> (
        let id = echo_id req in
        match Option.bind (Jsonx.member "op" req) Jsonx.str with
        | Some "ping" ->
            ignore
              (write_json t conn
                 (Jsonx.Obj
                    ([ ("ok", Jsonx.Bool true); ("op", Jsonx.Str "pong") ] @ id)))
        | Some "metrics" -> ignore (write_json t conn (metrics t))
        | _ -> (
            let job = { conn; req; submitted_ns = Mclock.now_ns () } in
            Atomic.incr conn.inflight;
            match Admission.submit t.queue ~client:conn.client job with
            | Admission.Accepted -> Metrics.incr_requests t.metrics
            | refused ->
                Atomic.decr conn.inflight;
                Metrics.incr_shed t.metrics;
                ignore
                  (write_json t conn
                     (if refused = Admission.Draining then
                        error_json ~id ~code:"GQ063"
                          ~message:"server is draining, no new requests" ()
                      else
                        error_json ~id ~code:"GQ060"
                          ~message:"overloaded, request shed — retry later"
                          ~extra:[ ("retry_after_ms", Jsonx.Num 100.0) ]
                          ()))))

(* Idle reaping rides on the receive timeout: a read blocked this long
   fails with EAGAIN.  SO_RCVTIMEO 0 means "never", hence the floor. *)
let set_idle_timeout fd ms =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (float_of_int (max 1 ms) /. 1000.)
  with Unix.Unix_error _ -> ()

let conn_loop t conn =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let discarding = ref false in
  (* torn/oversized frames: skip to the next newline and recover, the
     wire-level mirror of the journal's GQ048 tolerate-partial rule *)
  (* bytes before [i] hold no newline, so each read scans only its own *)
  let rec drain_lines i =
    if i < Buffer.length buf && Buffer.nth buf i <> '\n' then drain_lines (i + 1)
    else if i < Buffer.length buf then begin
      let line = Buffer.sub buf 0 i in
      let rest = Buffer.sub buf (i + 1) (Buffer.length buf - i - 1) in
      Buffer.clear buf;
      Buffer.add_string buf rest;
      if !discarding then begin
        discarding := false;
        Metrics.incr_malformed t.metrics;
        ignore
          (write_json t conn
             (error_json ~code:"GQ062"
                ~message:
                  (Printf.sprintf "request line exceeds %d bytes, discarded"
                     t.config.max_line_bytes)
                ()))
      end
      else handle_line t conn line;
      drain_lines 0
    end
    else if !discarding || Buffer.length buf > t.config.max_line_bytes then begin
      (* while discarding, drop every chunk as it arrives: an endless
         line must cost O(chunk), not grow the buffer without bound *)
      Buffer.clear buf;
      discarding := true
    end
  in
  let rec loop () =
    if not (Atomic.get conn.dead) then
      match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* the receive timeout.  Idle means no reads, no delivered
             responses AND nothing queued or executing — a client
             silently awaiting a slow answer must not be reaped
             mid-request; otherwise wait out the time left. *)
          let quiet_ns = Int64.sub (Mclock.now_ns ()) (Atomic.get conn.last_activity) in
          let left_ms = t.config.idle_timeout_ms - Int64.to_int (Int64.div quiet_ns 1_000_000L) in
          if Atomic.get conn.inflight > 0 || left_ms > 0 then begin
            set_idle_timeout conn.fd (if left_ms > 0 then left_ms else t.config.idle_timeout_ms);
            loop ()
          end
          else begin
            Metrics.incr_idle_closes t.metrics;
            ignore
              (write_json t conn
                 (error_json ~code:"GQ064"
                    ~message:(Printf.sprintf "idle for %dms, closing" t.config.idle_timeout_ms)
                    ()))
          end
      | exception _ -> ()
      | 0 ->
          (* EOF; a torn trailing fragment is simply discarded *)
          if Buffer.length buf > 0 then Metrics.incr_malformed t.metrics
      | n ->
          Atomic.set conn.last_activity (Mclock.now_ns ());
          Buffer.add_subbytes buf chunk 0 n;
          drain_lines (Buffer.length buf - n);
          loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set conn.dead true;
      ignore (Admission.forget_client t.queue ~client:conn.client);
      Mutex.lock t.conns_lock;
      Hashtbl.remove t.conns conn.client;
      Mutex.unlock t.conns_lock;
      (* the reader owns the fd: this is the only close *)
      Mutex.lock conn.wlock;
      (try Unix.close conn.fd with _ -> ());
      Mutex.unlock conn.wlock;
      (* last act: deregister our own thread so the table only ever
         holds live readers (a thread [stop] snapshots just before this
         line is joined; one deregistered here has nothing left to do) *)
      Mutex.lock t.conns_lock;
      Hashtbl.remove t.conn_threads conn.client;
      Mutex.unlock t.conns_lock)
    loop

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)

let refuse_and_close t fd ~code ~message =
  Metrics.incr_rejected_clients t.metrics;
  let s = frame (error_json ~code ~message ()) in
  (try ignore (Unix.write_substring fd s 0 (String.length s))
   with _ -> ());
  try Unix.close fd with _ -> ()

let open_spare () =
  try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
  with Unix.Unix_error _ -> None

let close_spare = Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())

(* Blocks in [accept]; [stop]'s shutdown of the listener fails it, and
   only then does the loop end: an error while not stopping is one
   client's (or the fd limit's), never the listener's end. *)
let accept_loop t =
  (* At the fd limit [accept] fails at once for as long as a client
     waits in the backlog, so retrying it would spin.  Instead the
     thread gives up its spare fd, takes that client, refuses it
     (GQ061) and holds the spare again: the next [accept] blocks.
     Without a spare (another thread took its slot) it waits a little
     before the next try. *)
  let spare = ref (open_spare ()) and limit_logged = ref false in
  let refuse_at_fd_limit () =
    if not !limit_logged then begin
      limit_logged := true;
      Logs.warn (fun m -> m "serve: out of file descriptors, refusing new clients until some close")
    end;
    close_spare !spare;
    (match Unix.accept t.listen_fd with
    | fd, _ -> refuse_and_close t fd ~code:"GQ061" ~message:"out of file descriptors, try later"
    | exception Unix.Unix_error _ -> ());
    spare := open_spare ();
    if !spare = None then Thread.delay 0.1
  in
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception _ when Atomic.get t.stopping -> ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        refuse_at_fd_limit ();
        loop ()
    | exception Unix.Unix_error ((Unix.ENOBUFS | Unix.ENOMEM), _, _) ->
        Thread.delay 0.01;
        loop ()
    | exception Unix.Unix_error _ -> loop ()
    | fd, _ ->
        if Atomic.get t.stopping then
          refuse_and_close t fd ~code:"GQ063" ~message:"server is draining, connection refused"
        else if num_clients t >= t.config.max_clients then
          refuse_and_close t fd ~code:"GQ061"
            ~message:(Printf.sprintf "too many clients (max %d), try later" t.config.max_clients)
        else begin
          (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO write_timeout_s with _ -> ());
          set_idle_timeout fd t.config.idle_timeout_ms;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
          let conn =
            {
              fd;
              client = Atomic.fetch_and_add t.next_client 1;
              wlock = Mutex.create ();
              dead = Atomic.make false;
              sent = Atomic.make 0;
              inflight = Atomic.make 0;
              last_activity = Atomic.make (Mclock.now_ns ());
            }
          in
          Mutex.lock t.conns_lock;
          Hashtbl.replace t.conns conn.client conn;
          let th = Thread.create (fun () -> conn_loop t conn) () in
          Hashtbl.replace t.conn_threads conn.client th;
          Mutex.unlock t.conns_lock
        end;
        loop ()
  in
  Fun.protect ~finally:(fun () -> close_spare !spare) loop

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?(host = "127.0.0.1") ~port ~config mgr =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (try Unix.bind listen_fd addr
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      config;
      mgr;
      listen_fd;
      bound_port;
      metrics = Metrics.create ();
      queue =
        Admission.create ~depth:config.queue_depth
          ~per_client:config.per_client_depth;
      stopping = Atomic.make false;
      stop_lock = Mutex.create ();
      conns_lock = Mutex.create ();
      conns = Hashtbl.create 16;
      conn_threads = Hashtbl.create 16;
      workers = [];
      accept_thread = None;
      writer_lock = Mutex.create ();
      act_lock = Mutex.create ();
      active = Hashtbl.create 16;
      next_client = Atomic.make 0;
      next_req = Atomic.make 0;
    }
  in
  t.workers <-
    List.init (max 1 config.workers) (fun _ ->
        Thread.create (fun () -> worker_loop t) ());
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let port t = t.bound_port
let clients t = num_clients t

let stop t =
  Mutex.protect t.stop_lock @@ fun () ->
  if not (Atomic.exchange t.stopping true) then begin
    (* 1. stop accepting: on Linux, shutting the listener down fails the
       blocked [accept] (EINVAL) without opening an fd; where it does not
       wake it, the thread is left behind rather than joined *)
    (match Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with
    | () -> Option.iter Thread.join t.accept_thread
    | exception Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (* 2. refuse new requests, let workers finish the queue *)
    Admission.drain t.queue;
    (* 3. grace period for in-flight work... *)
    let deadline = Int64.add (Mclock.now_ns ()) drain_grace_ns in
    let busy () =
      Mutex.lock t.act_lock;
      let n = Hashtbl.length t.active in
      Mutex.unlock t.act_lock;
      n > 0 || Admission.depth t.queue > 0
    in
    while busy () && Int64.compare (Mclock.now_ns ()) deadline < 0 do
      Thread.delay 0.01
    done;
    (* ...then trip stragglers: they return sound Partial answers *)
    Mutex.lock t.act_lock;
    Hashtbl.iter (fun _ b -> Budget.cancel b) t.active;
    Mutex.unlock t.act_lock;
    List.iter Thread.join t.workers;
    (* 4. all responses flushed — now close connections *)
    Mutex.lock t.conns_lock;
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    let threads = Hashtbl.fold (fun _ th acc -> th :: acc) t.conn_threads [] in
    Mutex.unlock t.conns_lock;
    List.iter kill conns;
    List.iter Thread.join threads
  end
