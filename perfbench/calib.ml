(* A fixed piece of work that uses only the OCaml standard library, timed
   to gauge how fast the host runs at the moment.  run.py scales every
   timed metric of a block by this kernel's time around the block (see
   README.md, "Host speed").  The kernel mixes what a query server and
   its client do — cache-missing memory reads, hashing, small
   allocations, sorting, number printing and one-byte round trips to
   another process — so that the host's slow stretches slow it about as
   much as they slow the program.  Nothing in it calls gqkg, so a change
   to the program leaves its time alone. *)

let size = 1 lsl 17

(* One random cycle through [size] slots (Sattolo's shuffle): following
   it reads memory in an order no prefetcher guesses.  Built on first
   use, so only the [calib] process holds it. *)
let cycle =
  lazy
    (let a = Array.init size Fun.id in
     let st = Random.State.make [| 42 |] in
     for i = size - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

(* A child process that writes back every byte it reads, until end of
   input.  With both on one CPU a round trip is two context switches, as
   a request and its response between run.py and the daemon are. *)
let echo =
  lazy
    (let to_child, to_echo = Unix.pipe () and from_echo, to_parent = Unix.pipe () in
     match Unix.fork () with
     | 0 ->
         Unix.close to_echo;
         Unix.close from_echo;
         let b = Bytes.create 1 in
         while Unix.read to_child b 0 1 = 1 do
           ignore (Unix.write to_parent b 0 1)
         done;
         Unix._exit 0
     | pid ->
         Unix.close to_child;
         Unix.close to_parent;
         (pid, to_echo, from_echo))

let kernel () =
  let _, to_echo, from_echo = Lazy.force echo in
  let byte = Bytes.create 1 in
  for _ = 1 to 1000 do
    ignore (Unix.write to_echo byte 0 1);
    ignore (Unix.read from_echo byte 0 1)
  done;
  let next = Lazy.force cycle in
  let p = ref 0 in
  for _ = 1 to 60_000 do
    p := next.(!p)
  done;
  let h = Hashtbl.create 1024 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (next.(i) land 0xffff) i
  done;
  let hits = ref 0 in
  for i = 0 to 19_999 do
    if Hashtbl.mem h i then incr hits
  done;
  let pairs = List.sort compare (List.init 20_000 (fun i -> (next.(i + 7), i))) in
  let b = Buffer.create 65536 in
  List.iter
    (fun (x, _) ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    pairs;
  !p + !hits + Buffer.length b

(* [harness calib]: for every line read on stdin, run the kernel once and
   print its wall time in ms; at end of input, end the echo child and
   exit. *)
let serve () =
  ignore (Sys.opaque_identity (kernel ()));
  try
    while true do
      ignore (input_line stdin);
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (kernel ()));
      Printf.printf "%.17g\n%!" ((Unix.gettimeofday () -. t0) *. 1e3)
    done
  with End_of_file ->
    let pid, to_echo, _ = Lazy.force echo in
    Unix.close to_echo;
    ignore (Unix.waitpid [] pid)

(* A [harness calib] child of this process: [sample ()] times one kernel
   run in it, [close ()] ends it and waits for it. *)
let spawn () =
  let ic, oc =
    Unix.open_process_args Sys.executable_name [| Sys.executable_name; "calib" |]
  in
  let sample () =
    output_char oc '\n';
    flush oc;
    float_of_string (input_line ic)
  in
  let close () = ignore (Unix.close_process (ic, oc)) in
  (sample, close)
