(* The LDV benchmark: one seeded workload per process.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --seed N --counts

   A run generates the workload's instance once, learns what a native
   run returns and runs one untimed warm-up round. It then repeats
   rounds until S seconds after it started. A round has three steps: the
   workload natively, under a server-included audit and under a
   server-excluded audit, each audit with its package built, serialized,
   replayed and verified. Set-up samples are taken between rounds. Every
   step and sample runs in a child process forked from the parent, and
   every step's times are scaled by the host's speed at that moment (see
   reference.ml). A figure is the median over the rounds. Every output
   is checked: native and audited results must agree, every package
   must replay and verify, and no statement may fail.

   With --trace 0 the last line of stdout is a JSON object carrying the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics,
   taken from spans recorded by the benchmark's own wrappers around the
   layers' public functions (written to ldvbench/out/), and from layer
   and replication probes run after the rounds. The program's own
   observability sink stays [Null] throughout. --counts runs each step
   once at a reduced size and prints the exact counts the self-test
   compares. *)

open Ldv_core
module I = Dbclient.Interceptor
module W = Workloads

(* ---------------------------------------------------------------- *)
(* Correctness accounting                                            *)

let process_start = Spans.now ()
let attempted = ref 0
let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("ldvbench: check failed: " ^ msg)
      end)
    fmt

(* Statements issued by a phase, and how many of them errored. *)
let count_statements phase =
  attempted := !attempted + List.length W.sink.W.times;
  if W.sink.W.errors > 0 then begin
    failed := !failed + W.sink.W.errors;
    Printf.eprintf "ldvbench: %d statement errors in %s\n%!" W.sink.W.errors
      phase
  end

(* ---------------------------------------------------------------- *)
(* Isolation                                                         *)

(* Run [f] in a forked child process and return its result. Every step
   runs this way, so each starts from the same heap: the one the
   parent's set-up left. Run in the process itself, a step ran on a heap
   that the steps before it had grown, so its time depended on where in
   the run it came; forked from a parent that had run the steps once,
   every step inherited that run's heap, and its times depended on the
   run. The child sends back the result, its checks, its spans and its
   peak heap; a child that dies counts as a failed check. *)
(* The largest heap any child reached, in words. *)
let peak_words = ref 0

let in_child (f : unit -> 'a) : 'a option =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Unix.close rd;
        attempted := 0;
        failed := 0;
        let inherited = List.length !Spans.recorded in
        let r = f () in
        let fresh = List.length !Spans.recorded - inherited in
        let spans = List.filteri (fun i _ -> i < fresh) !Spans.recorded in
        let peak = (Gc.quick_stat ()).Gc.top_heap_words in
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc (r, !attempted, !failed, spans, !Spans.next_id, peak) [];
        close_out oc;
        0
      with e ->
        prerr_endline ("ldvbench: " ^ Printexc.to_string e);
        1
    in
    flush stderr;
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let reply = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    let rec wait () =
      try snd (Unix.waitpid [] pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status = wait () in
    (match reply with
     | Some (r, a, fl, spans, next_id, peak) when status = Unix.WEXITED 0 ->
       peak_words := max !peak_words peak;
       attempted := !attempted + a;
       failed := !failed + fl;
       Spans.recorded := spans @ !Spans.recorded;
       Spans.next_id := next_id;
       Some r
     | _ ->
       check false "a benchmark child process ended with a result";
       None)

(* ---------------------------------------------------------------- *)
(* Steps                                                             *)

(* What one run of the workload measured, natively or under an audit. *)
type run = {
  query_ms : float list;  (** the workload's timed queries *)
  stmt_us : float list;  (** every statement *)
  first_us : float list;  (** first tenth of each client's statements *)
  last_us : float list;  (** last tenth *)
  run_s : float;  (** the native run, or Audit.run *)
  n_stmts : int;
}

(* An audited step: the workload under an audit, its package built and
   serialized, then deserialized, replayed and verified. *)
type audited = {
  a_run : run;
  audit_s : float;  (** Audit.run + Package.build + Package.to_bytes *)
  replay_s : float;  (** of_bytes + prepare + run + verify *)
  bytes : int;  (** serialized package size *)
}

(* The statement figures of what the sink holds. [query] picks the
   statements that count as the workload's timed queries. *)
let run_of_sink ~query ~run_s ~scale : run =
  let times = W.sink.W.times in
  let per_client = Hashtbl.create 2 in
  List.iter
    (fun t ->
      let n = Option.value ~default:0 (Hashtbl.find_opt per_client t.W.st_client) in
      Hashtbl.replace per_client t.W.st_client (n + 1))
    times;
  let us t = (t.W.st_t1 -. t.W.st_t0) *. scale *. 1e6 in
  let select pred = List.filter_map (fun t -> if pred t then Some (us t) else None) times in
  let tenth pred =
    select (fun t ->
        let n = Hashtbl.find per_client t.W.st_client in
        pred t.W.st_index (max 1 (n / 10)) n)
  in
  { query_ms = List.map (fun x -> x /. 1e3) (select query);
    stmt_us = List.map us times;
    first_us = tenth (fun i k _ -> i < k);
    last_us = tenth (fun i k n -> i >= n - k);
    run_s = run_s *. scale;
    n_stmts = List.length times }

(* The state a workload's steps share. *)
type ctx = {
  kind : W.kind;
  seed : int;
  fx : W.fixture;
  tpch : W.tpch_inputs option;
  mixes : W.stmt array array;  (** sessions-oltp: each client's stream *)
  mutable last_audit : Audit.t option;  (** last included audit, for probes *)
}

(* Compact the heap before a timed step, so that the garbage of making
   its environment is not collected on its time. *)
let compact () = ignore (Spans.timed "gc.compact" Gc.compact)

(* Whether the included audited step keeps its audit for the layer
   probes. *)
let keep_audit = ref false

(* The native step: [env] makes a fresh environment, [run] executes the
   workload in it and returns what the audits must reproduce. *)
let native_step ~query ~env run =
  let e = env () in
  compact ();
  W.reset_sink ();
  let before = Reference.time () in
  let r, run_s = Spans.scope "native.run" (fun () -> run e) in
  let scale = Reference.scale ~before ~after:(Reference.time ()) in
  count_statements "native run";
  (r, run_of_sink ~query ~run_s ~scale)

(* A replay of a small package takes tens of milliseconds, so the
   replay repeats until the repeats add up to this; its time is their
   median. *)
let min_replay_s = 0.2

(* An audited step: audit the workload in a fresh environment from
   [env], check the outputs with [check_audit], build and serialize the
   package; then deserialize, replay and verify it. In the traced run,
   an included audit's trace build is re-run after that, outside the
   timed part: [audit.fixed_ms] pairs its time with the audit's self
   time. *)
let audited_step ctx ~query ~packaging ~check_audit ~env run_audit =
  let p, label =
    match packaging with
    | Audit.Included -> ("incl/", "included audit")
    | _ -> ("excl/", "excluded audit")
  in
  let e = env () in
  compact ();
  W.reset_sink ();
  let before = Reference.time () in
  let audit, run_s = Spans.scope (p ^ "audit.run") (fun () -> run_audit e) in
  let pkg, build_s = Spans.timed (p ^ "package.build") (fun () -> Package.build audit) in
  let bytes, ser_s = Spans.timed (p ^ "package.serialize") (fun () -> Package.to_bytes pkg) in
  let audit_scale = Reference.scale ~before ~after:(Reference.time ()) in
  count_statements label;
  check_audit audit;
  let run = run_of_sink ~query ~run_s ~scale:audit_scale in
  compact ();
  let before = Reference.time () in
  let rec replays times total =
    W.reset_sink ();
    let pkg, de_s = Spans.timed (p ^ "package.deserialize") (fun () -> Package.of_bytes bytes) in
    let prepared, prep_s = Spans.timed (p ^ "replay.prepare") (fun () -> Replay.prepare pkg) in
    let result, run_s = Spans.scope (p ^ "replay.run") (fun () -> Replay.run prepared) in
    let divergences, verify_s =
      Spans.timed (p ^ "replay.verify") (fun () -> Replay.verify ~audit result)
    in
    count_statements (label ^ " replay");
    check (divergences = []) "%s package replays and verifies (%s)" label
      (String.concat "; " divergences);
    let s = de_s +. prep_s +. run_s +. verify_s in
    if total +. s >= min_replay_s then s :: times else replays (s :: times) (total +. s)
  in
  let replay_times = replays [] 0. in
  let replay_scale = Reference.scale ~before ~after:(Reference.time ()) in
  if packaging = Audit.Included then begin
    if !keep_audit then ctx.last_audit <- Some audit;
    if !Spans.enabled then
      ignore
        (Spans.timed "prov.build_trace" (fun () ->
             Audit.build_trace audit.Audit.tracer (Audit.stmts audit)))
  end;
  { a_run = run;
    audit_s = (run_s +. build_s +. ser_s) *. audit_scale;
    replay_s = Spans.median replay_times *. replay_scale;
    bytes = String.length bytes }

(* A workload's steps. [native] runs it natively and returns what an
   audit must reproduce; [audited] runs it under an audit, checked
   against [expected]. *)
type steps = {
  native : unit -> string list * run;
  audited : Audit.packaging -> expected:string list -> audited;
}

(* tpch workloads: the app natively, under a server-included or under a
   server-excluded audit. *)
let tpch_steps ctx =
  let inp = Option.get ctx.tpch in
  let program = W.tpch_app inp in
  Minios.Program.register ~name:W.tpch_app_name program;
  let n_ins = Array.length inp.W.t_inserts in
  (* the first Select is the cold one (Figure 7); the others are timed *)
  let query t = t.W.st_read && t.W.st_index > n_ins in
  let env () = W.tpch_env ctx.fx inp in
  let native () =
    native_step ~query ~env (fun (kernel, server, binary) ->
        I.bind kernel (I.create ~mode:I.Passthrough ~kernel server);
        Fun.protect
          ~finally:(fun () -> I.unbind kernel)
          (fun () ->
            ignore
              (Minios.Program.run kernel ~binary ~libs:Tpch.Workload.app_libs
                 ~name:W.tpch_app_name program));
        W.sink.W.select_fps)
  in
  let audited packaging ~expected =
    audited_step ctx ~query ~packaging ~env
      ~check_audit:(fun _ ->
        check
          (W.sink.W.select_fps = expected)
          "%s audit: Select results equal the native ones"
          (if packaging = Audit.Included then "included" else "excluded"))
      (fun (kernel, server, binary) ->
        Audit.run ~packaging kernel server ~app_name:W.tpch_app_name
          ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program)
  in
  { native; audited }

(* Clients natively: passthrough sessions under the seeded scheduler the
   concurrent audit uses, with [cluster] attached if given. Returns the
   files at [outs]. *)
let clients_native ?cluster ctx clients ~outs (kernel, server) =
  let primary = I.create ~mode:I.Passthrough ~snapshot_reads:true ~kernel server in
  Option.iter (I.attach_cluster primary) cluster;
  let sessions =
    primary
    :: List.init (List.length clients - 1) (fun i ->
           I.create_sibling primary ~session_id:(i + 1))
  in
  ignore
    (Minios.Sched.run kernel ~seed:ctx.seed
       (List.map2
          (fun (cl : Audit.client) sess ->
            Minios.Sched.client ~binary:cl.Audit.cl_binary ~libs:cl.Audit.cl_libs
              ~name:cl.Audit.cl_name (fun env ->
                let pid = Minios.Program.pid env in
                I.bind_for kernel ~pid sess;
                Fun.protect
                  ~finally:(fun () -> I.unbind_for kernel ~pid)
                  (fun () -> cl.Audit.cl_program env)))
          clients sessions));
  List.map (Minios.Vfs.read (Minios.Kernel.vfs kernel)) outs

(* sessions-oltp: the clients natively, under a concurrent server-included
   audit, or session 0 alone under a server-excluded audit (concurrent
   audits require server-included packaging). *)
let sessions_steps ctx =
  let clients = W.session_clients ctx.kind ctx.mixes in
  List.iter
    (fun (cl : Audit.client) ->
      Minios.Program.register ~name:cl.Audit.cl_name cl.Audit.cl_program)
    clients;
  let query t = ctx.mixes.(t.W.st_client).(t.W.st_index).W.op = W.Point_select in
  let env () = W.sessions_env ctx.fx in
  let native () =
    native_step ~query ~env
      (clients_native ctx clients ~outs:(List.init W.sessions W.client_out))
  in
  let cl = List.hd clients in
  let audited packaging ~expected =
    match packaging with
    | Audit.Included ->
      audited_step ctx ~query ~packaging ~env
        ~check_audit:(fun audit ->
          List.iteri
            (fun i out ->
              check
                (List.assoc_opt (W.client_out i) audit.Audit.out_files = Some out)
                "included audit: client %d output equals the native run's" i)
            expected)
        (fun (kernel, server) ->
          Audit.run_concurrent ~packaging ~sched_seed:ctx.seed kernel server
            clients)
    | _ ->
      audited_step ctx ~query ~packaging ~env
        ~check_audit:(fun _ -> ())
        (fun (kernel, server) ->
          Audit.run ~packaging kernel server ~app_name:cl.Audit.cl_name
            ~app_binary:cl.Audit.cl_binary ~app_libs:cl.Audit.cl_libs
            cl.Audit.cl_program)
  in
  { native; audited }

let steps_of ctx =
  if W.is_tpch ctx.kind then tpch_steps ctx else sessions_steps ctx

(* Call [f 0], [f 1], ... until [deadline]: at least once, and again
   only while the next call is expected to end by the deadline, give or
   take half a call. *)
let repeat_until deadline f =
  let t0 = Spans.now () in
  let rec go n acc =
    let now = Spans.now () in
    let per_call = (now -. t0) /. float_of_int (max 1 n) in
    if n > 0 && now +. (per_call /. 2.) >= deadline then List.rev acc
    else go (n + 1) (f n :: acc)
  in
  go 0 []

(* What one round measured: the native step, the included and the
   excluded audited step. *)
type round = { r_native : run; r_incl : audited; r_excl : audited }

(* The measured time of a round's steps. *)
let round_s r =
  r.r_native.run_s +. r.r_incl.audit_s +. r.r_incl.replay_s +. r.r_excl.audit_s
  +. r.r_excl.replay_s

(* One round: every step in a child of its own. A native run must
   return what the warm-up's did. *)
let round ctx steps ~expected ~n =
  let step name f =
    in_child (fun () ->
        Spans.request := Printf.sprintf "%s/%d/%s" (W.name ctx.kind) n name;
        f ())
  in
  let native =
    step "native" (fun () ->
        let r, run = steps.native () in
        check (r = expected) "native run %d returns what the warm-up's did" n;
        run)
  in
  let incl = step "incl" (fun () -> steps.audited Audit.Included ~expected) in
  let excl = step "excl" (fun () -> steps.audited Audit.Excluded ~expected) in
  match (native, incl, excl) with
  | Some r_native, Some r_incl, Some r_excl -> Some { r_native; r_incl; r_excl }
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Set-up                                                            *)

(* A set-up sample repeats the set-up until it has taken this long. *)
let min_setup_s = 0.3

(* One set-up sample: instance generation plus one fixture load,
   repeated until it has taken [min_setup_s] so that a set-up of
   milliseconds (the sessions fixture) is not decided by one scheduling
   hiccup of the host. Returns the last fixture, the time per set-up and
   every generation time. *)
let setup_sample ~kind ~seed ~size =
  compact ();
  let before = Reference.time () in
  let rec go k total dbgens =
    let (fx, dbgen_s), s =
      Spans.timed "setup" (fun () ->
          let fx, dbgen_s = W.setup ~seed ~size kind in
          ignore (W.fresh_db fx);
          (fx, dbgen_s))
    in
    let total = total +. s and dbgens = dbgen_s :: dbgens in
    if total >= min_setup_s then
      let scale = Reference.scale ~before ~after:(Reference.time ()) in
      (fx, total *. scale /. float_of_int k, dbgens)
    else go (k + 1) total dbgens
  in
  go 1 0. []

(* Set the workload up once, for the context every later step forks
   from. Returns it with the generation times of that set-up. *)
let setup ~kind ~seed ~size =
  let fx, dbgen_s = W.setup ~seed ~size kind in
  let tpch =
    Option.map (fun stats -> W.tpch_inputs ~seed ~size kind stats) fx.W.stats
  in
  let mixes =
    if W.is_tpch kind then [||]
    else Array.init W.sessions (fun i -> W.session_mix ~seed ~size i)
  in
  ({ kind; seed; fx; tpch; mixes; last_audit = None }, [ dbgen_s ])

(* ---------------------------------------------------------------- *)
(* Layer probes (traced run only)                                    *)

(* Re-invoke single layers on the workload's own statements and data,
   each call wrapped in a span; the per-layer metrics are read back from
   the spans. These re-invocations never run in the timed end-to-end
   rounds. *)

let main_sql ctx =
  match ctx.tpch with
  | Some inp -> inp.W.t_query
  | None -> W.group_count_sql 1

let point_sqls ctx =
  match ctx.fx.W.stats with
  | Some stats ->
    let rng = Tpch.Prng.create ~seed:(ctx.seed + 2) in
    List.init 200 (fun _ ->
        Printf.sprintf
          "SELECT o_orderkey, o_orderstatus, o_totalprice, o_comment FROM \
           orders WHERE o_orderkey = %d"
          (1 + Tpch.Prng.int rng stats.Tpch.Dbgen.n_orders))
  | None ->
    Array.to_list ctx.mixes.(0)
    |> List.filter_map (fun st ->
           if st.W.op = W.Point_select then Some st.W.sql else None)

let select_of sql =
  match Minidb.Sql_parser.parse sql with
  | Minidb.Sql_ast.Select s -> s
  | _ -> invalid_arg ("not a SELECT: " ^ sql)

let rec conjuncts = function
  | Minidb.Sql_ast.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let base_tables (s : Minidb.Sql_ast.select) =
  let rec go acc = function
    | Minidb.Sql_ast.From_table { table; alias; _ } ->
      (table, Option.value alias ~default:table) :: acc
    | Minidb.Sql_ast.From_join { left; right; _ } -> go (go acc left) right
  in
  List.rev (List.fold_left go [] s.Minidb.Sql_ast.from)

type counts = {
  lineage_tuples : int;
  trace_edges : int;
  trace_nodes : int;
  relevant_tuples : int;
  fsync_per_stmt : float;
  replica_read_share : float;
  response_bytes_per_stmt : float;
}

(* A durable leader over [server] with one WAL-shipping read replica. *)
let cluster_over ?ckpt_every kernel server ~group_commit =
  let proc = Minios.Kernel.start_process kernel ~name:"minidb-leader" () in
  let leader = Dbclient.Durable.start kernel server ~pid:proc.Minios.Kernel.pid in
  if group_commit then Dbclient.Durable.enable_group_commit leader;
  (leader, Dbclient.Replication.create kernel ~leader ~replicas:1 ?ckpt_every ())

(* After a quiesce, the replica holds the leader's tables, row ids,
   indexes and version stamps. The clocks are not compared: under the
   client library the leader's clock also follows the reads it serves,
   which are not shipped. *)
let check_converged label cl =
  Dbclient.Replication.quiesce cl;
  let tables db =
    let f = Dbclient.Replication.state_fingerprint db in
    let eol = String.index f '\n' in
    String.sub f eol (String.length f - eol)
  in
  let leader = tables (Dbclient.Replication.leader_db cl) in
  let replica = tables (Dbclient.Replication.replica_db cl 0) in
  let same = String.equal leader replica in
  check same "%s: the replica holds the leader's tables%s" label
    (if same then ""
     else
       " (" ^ Dbclient.Replication.first_diff ~left:"leader" ~right:"replica" leader replica
       ^ ")")

(* The included audit's statements re-executed on a durable leader under
   group commit, with one read replica: each session's statements in
   their recorded order, one statement per session per scheduling round,
   then the kernel's quantum hooks (where the group-commit flush raises
   one fsync barrier for the round). Writes go through [Durable.exec] and
   are shipped with [Replication.note_write], which appends them to the
   ship log and has the replica apply them; reads go through
   [Replication.read]. Returns the leader's fsync barriers per
   statement. *)
let probe_group_commit ctx (audit : Audit.t) =
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel (W.fresh_db ctx.fx) in
  (* the replica checkpoints once in 1000 applied records instead of the
     default 8: a checkpoint images the whole database, 0.4 s at sf 0.01,
     and would be most of the probe's time on the tpch workloads *)
  let leader, cl = cluster_over ~ckpt_every:1000 kernel server ~group_commit:true in
  let stmts = Audit.stmts audit in
  let queues =
    List.sort_uniq compare (List.map (fun s -> s.I.sid) stmts)
    |> List.map (fun sid -> ref (List.filter (fun s -> s.I.sid = sid) stmts))
  in
  let errors = ref 0 in
  let answered = function
    | Dbclient.Protocol.Error_response _ -> incr errors; false
    | _ -> true
  in
  let step (s : I.stmt_event) =
    if s.I.kind = I.Squery then
      let served, _ =
        Spans.timed "dbclient.replica_read" (fun () -> Dbclient.Replication.read cl s.I.sql)
      in
      ignore (answered served.Dbclient.Replication.sv_resp)
    else begin
      let at = Minidb.Database.clock (Dbclient.Replication.leader_db cl) in
      let resp, _ =
        Spans.timed "dbclient.durable_exec" (fun () ->
            Dbclient.Durable.exec ~sid:s.I.sid leader s.I.sql)
      in
      if answered resp then
        ignore
          (Spans.timed "dbclient.ship_apply" (fun () ->
               Dbclient.Replication.note_write cl ~at s.I.sql))
    end
  in
  let rec rounds () =
    let live = List.filter (fun q -> !q <> []) queues in
    if live <> [] then begin
      List.iter
        (fun q ->
          match !q with
          | s :: rest -> q := rest; step s
          | [] -> ())
        live;
      Minios.Kernel.run_quantum_hooks kernel;
      rounds ()
    end
  in
  rounds ();
  Dbclient.Durable.flush leader;
  attempted := !attempted + List.length stmts;
  failed := !failed + !errors;
  if !errors > 0 then
    Printf.eprintf "ldvbench: %d statement errors under group commit\n%!" !errors;
  check_converged "group commit" cl;
  float_of_int (Dbclient.Durable.fsync_barriers leader)
  /. float_of_int (max 1 (List.length stmts))

(* The workload's clients with a durable leader and one read replica
   attached: snapshot-pinned reads route to the replica when it can serve
   them exactly, and every write is shipped and applied. The replica
   checkpoints at the default interval: the package does not record the
   interval, and replay re-creates the cluster with the default, whose
   checkpoint I/O is part of the recorded interleaving. The clients run
   natively and then under a concurrent server-included audit; their
   output files must agree, the package must replay and verify, and the
   replica must converge. Returns the share of reads the
   replica answered and the audit's statement figures. *)
let probe_cluster_audit ctx =
  let env () =
    match ctx.tpch with
    | Some inp ->
      let kernel, server, binary = W.tpch_env ctx.fx inp in
      ( kernel,
        server,
        [ { Audit.cl_name = W.tpch_app_name;
            cl_binary = binary;
            cl_libs = Tpch.Workload.app_libs;
            cl_program = W.tpch_app inp } ] )
    | None ->
      let kernel, server = W.sessions_env ctx.fx in
      (kernel, server, W.session_clients ctx.kind ctx.mixes)
  in
  let outs =
    match ctx.tpch with
    | Some inp -> [ inp.W.t_cfg.Tpch.Workload.out_path ]
    | None -> List.init W.sessions W.client_out
  in
  let kernel, server, clients = env () in
  let _, cl = cluster_over kernel server ~group_commit:false in
  W.reset_sink ();
  let native_outs = clients_native ~cluster:cl ctx clients ~outs (kernel, server) in
  count_statements "replicated native run";
  let kernel, server, clients = env () in
  let _, cl = cluster_over kernel server ~group_commit:false in
  compact ();
  W.reset_sink ();
  let raudit, run_s =
    Spans.scope "repl/audit.run" (fun () ->
        Audit.run_concurrent ~packaging:Audit.Included ~sched_seed:ctx.seed
          ~cluster:cl kernel server clients)
  in
  count_statements "replicated audit";
  let run = run_of_sink ~query:(fun _ -> false) ~run_s ~scale:1. in
  List.iter2
    (fun path native ->
      check
        (List.assoc_opt path raudit.Audit.out_files = Some native)
        "replicated audit: %s equals the replicated native run's" path)
    outs native_outs;
  check_converged "replicated audit" cl;
  let pkg, _ =
    Spans.timed "repl/package" (fun () ->
        Package.of_bytes (Package.to_bytes (Package.build raudit)))
  in
  W.reset_sink ();
  let result, _ =
    Spans.scope "repl/replay" (fun () -> Replay.run (Replay.prepare pkg))
  in
  count_statements "replicated replay";
  let divergences = Replay.verify ~audit:raudit result in
  check (divergences = []) "replicated package replays and verifies (%s)"
    (String.concat "; " divergences);
  let reads = List.filter (fun s -> s.I.kind = I.Squery) (Audit.stmts raudit) in
  let on_replica = List.filter (fun s -> s.I.replica >= 0) reads in
  ( float_of_int (List.length on_replica) /. float_of_int (max 1 (List.length reads)),
    run )

(* The exact counts of the last included audit and of the replication
   probes, deterministic for a seed so that the self-test can compare
   them across runs, and the layers that produce them. *)
let count_audit ctx (audit : Audit.t) : counts * run =
  let db = W.fresh_db ctx.fx in
  let lineage, _ =
    Spans.timed "perm.lineage" (fun () ->
        Perm.Provenance_sql.query_lineage db (main_sql ctx))
  in
  let stmts = Audit.stmts audit in
  let tids, _ = Spans.timed "slice.relevant" (fun () -> Slice.relevant audit) in
  ignore
    (Spans.timed "slice.to_csvs" (fun () ->
         Slice.to_csvs (Dbclient.Server.db audit.Audit.server) tids));
  let fsync_per_stmt = probe_group_commit ctx audit in
  let replica_read_share, repl_run = probe_cluster_audit ctx in
  let n = float_of_int (max 1 (List.length stmts)) in
  ( { lineage_tuples =
        Minidb.Tid.Set.cardinal (Perm.Provenance_sql.total_lineage lineage);
      trace_edges = Prov.Trace.edge_count audit.Audit.trace;
      trace_nodes = Prov.Trace.node_count audit.Audit.trace;
      relevant_tuples = Minidb.Tid.Set.cardinal tids;
      fsync_per_stmt;
      replica_read_share;
      response_bytes_per_stmt =
        float_of_int
          (List.fold_left (fun acc s -> acc + s.I.response_bytes) 0 stmts)
        /. n },
    repl_run )

(* Storage, expression, planner and point-query layers. *)
let probe_layers ctx (audit : Audit.t) =
  let db = W.fresh_db ctx.fx in
  let catalog = Minidb.Database.catalog db in
  let stmts = Audit.stmts audit in
  List.iter
    (fun s -> ignore (Spans.timed "minidb.parse" (fun () -> Minidb.Sql_parser.parse s.I.sql)))
    stmts;
  List.iter
    (fun s ->
      if s.I.kind = I.Squery then
        ignore
          (Spans.timed "minidb.plan" (fun () ->
               Minidb.Planner.plan_select catalog
                 ~eval_subquery:Minidb.Database.subquery_eval
                 (select_of s.I.sql))))
    stmts;
  List.iter
    (fun sql -> ignore (Spans.timed "minidb.point_query" (fun () -> Minidb.Database.query db sql)))
    (point_sqls ctx);
  let main = select_of (main_sql ctx) in
  let plan = Minidb.Database.plan db main in
  for _ = 1 to 3 do
    ignore (Spans.timed "minidb.exec" (fun () -> Minidb.Executor.run plan))
  done;
  let tables = base_tables main in
  let scanned =
    List.fold_left
      (fun acc (t, _) ->
        let tbl = Minidb.Catalog.find catalog t in
        let arr, _ = Spans.timed "minidb.scan" (fun () -> Minidb.Table.scan_array tbl) in
        acc + Array.length arr)
      0 tables
  in
  (* the filter: the first WHERE conjunct bound to a single base table,
     evaluated over that table's rows *)
  let filtered =
    List.find_map
      (fun conj ->
        List.find_map
          (fun (t, alias) ->
            let tbl = Minidb.Catalog.find catalog t in
            let schema = Minidb.Schema.with_qualifier alias (Minidb.Table.schema tbl) in
            match Minidb.Eval_expr.bind schema conj with
            | bound -> Some (tbl, bound)
            | exception _ -> None)
          tables)
      (match main.Minidb.Sql_ast.where with Some w -> conjuncts w | None -> [])
  in
  let filter_rows =
    match filtered with
    | None -> 0
    | Some (tbl, bound) ->
      let arr = Minidb.Table.scan_array tbl in
      ignore
        (Spans.timed "minidb.filter" (fun () ->
             Array.iter
               (fun (tv : Minidb.Table.tuple_version) ->
                 ignore (Minidb.Eval_expr.eval_pred tv.Minidb.Table.values bound))
               arr));
      Array.length arr
  in
  let w0 = Gc.minor_words () in
  ignore (Minidb.Database.query db (main_sql ctx));
  let words = Gc.minor_words () -. w0 in
  (scanned, filter_rows, words)

(* ---------------------------------------------------------------- *)
(* Output                                                            *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_of_metrics ~correct ms =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.m_name x.m_value
          x.m_unit)
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct !attempted !failed (String.concat ", " body)

(* The human-readable report; [failed_frac] is shown here and travels in
   the JSON line as its attempted and failed counts. *)
let print_report ~title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-34s %18.6f %s\n" x.m_name x.m_value x.m_unit)
    (ms
    @ [ m "failed_frac" "ratio"
          (float_of_int !failed /. float_of_int (max 1 !attempted)) ])

let ms_ x = x *. 1e3
let median = Spans.median
let concat f xs = List.concat_map f xs

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [query_stat] summarizes the timed queries: the median on the tpch
   workloads; the mean on sessions-oltp. There, point-SELECT latency
   under two interleaved sessions is bimodal (a statement waits for the
   other session's statement or it does not), the median falls in the
   gap between the modes, and a small shift in the share of waiting
   statements moves it by tens of percent. *)
let end_to_end ~query_stat ~setup_s rounds =
  let per f = median (List.map f rounds) in
  let heap_mb = float_of_int (!peak_words * (Sys.word_size / 8)) /. 1e6 in
  let last = List.nth rounds (List.length rounds - 1) in
  [ m "setup_s" "s" (median setup_s);
    m "native_query_ms" "ms" (per (fun r -> query_stat r.r_native.query_ms));
    m "audit_query_ms" "ms" (per (fun r -> query_stat r.r_incl.a_run.query_ms));
    m "audit_excl_query_ms" "ms" (per (fun r -> query_stat r.r_excl.a_run.query_ms));
    m "audit_s" "s" (per (fun r -> r.r_incl.audit_s));
    m "replay_s" "s" (per (fun r -> r.r_incl.replay_s));
    m "package_bytes" "bytes" (float_of_int last.r_incl.bytes);
    m "audit_excl_s" "s" (per (fun r -> r.r_excl.audit_s));
    m "replay_excl_s" "s" (per (fun r -> r.r_excl.replay_s));
    m "package_excl_bytes" "bytes" (float_of_int last.r_excl.bytes);
    m "stmt_p50_us" "us" (per (fun r -> median r.r_incl.a_run.stmt_us));
    m "stmt_p99_us" "us" (per (fun r -> Spans.quantile 0.99 r.r_incl.a_run.stmt_us));
    m "stmt_per_s" "1/s"
      (per (fun r -> float_of_int r.r_incl.a_run.n_stmts /. r.r_incl.a_run.run_s));
    m "heap_peak_mb" "MB" heap_mb ]

let per_layer ctx ~dbgen_s ~overhead_pct ~incls =
  let audit = Option.get ctx.last_audit in
  let c, repl = count_audit ctx audit in
  let scanned, filter_rows, words = probe_layers ctx audit in
  let med name = median (Spans.durations name) in
  let total name = List.fold_left ( +. ) 0. (Spans.durations name) in
  let per_row name rows = if rows = 0 then 0. else total name *. 1e9 /. float_of_int rows in
  (* per traced included audit: its app spans, and its self time less
     the trace build re-run right after it *)
  let run_self = Spans.self_times "incl/audit.run" in
  let app = List.map2 ( -. ) (Spans.durations "incl/audit.run") run_self in
  let fixed = List.map2 ( -. ) run_self (Spans.durations "prov.build_trace") in
  let incl_runs = List.map (fun a -> a.a_run) incls in
  [ m "minidb.scan_ns_per_row" "ns" (per_row "minidb.scan" scanned);
    m "minidb.filter_ns_per_row" "ns" (per_row "minidb.filter" filter_rows);
    m "minidb.exec_ms" "ms" (ms_ (med "minidb.exec"));
    m "minidb.query_words_per_row" "words" (words /. float_of_int (max 1 scanned));
    m "minidb.parse_us" "us" (med "minidb.parse" *. 1e6);
    m "minidb.plan_us" "us" (med "minidb.plan" *. 1e6);
    m "minidb.point_query_us" "us" (med "minidb.point_query" *. 1e6);
    m "perm.lineage_ms" "ms" (ms_ (med "perm.lineage"));
    m "perm.lineage_tuples" "count" (float_of_int c.lineage_tuples);
    m "prov.build_trace_ms" "ms" (ms_ (med "prov.build_trace"));
    m "prov.trace_edges" "count" (float_of_int c.trace_edges);
    m "prov.trace_nodes" "count" (float_of_int c.trace_nodes);
    m "audit.app_ms" "ms" (ms_ (median app));
    m "audit.fixed_ms" "ms" (ms_ (median fixed));
    m "slice.relevant_ms" "ms" (ms_ (med "slice.relevant"));
    m "slice.relevant_tuples" "count" (float_of_int c.relevant_tuples);
    m "slice.to_csvs_ms" "ms" (ms_ (med "slice.to_csvs"));
    m "package.build_ms" "ms" (ms_ (med "incl/package.build"));
    m "package.serialize_ms" "ms" (ms_ (med "incl/package.serialize"));
    m "package.deserialize_ms" "ms" (ms_ (med "incl/package.deserialize"));
    m "replay.prepare_ms" "ms" (ms_ (med "incl/replay.prepare"));
    m "replay.run_ms" "ms" (ms_ (med "incl/replay.run"));
    m "replay.verify_ms" "ms" (ms_ (med "incl/replay.verify"));
    m "dbclient.durable_exec_us" "us" (med "dbclient.durable_exec" *. 1e6);
    m "dbclient.ship_apply_us" "us" (med "dbclient.ship_apply" *. 1e6);
    m "dbclient.replica_read_us" "us" (med "dbclient.replica_read" *. 1e6);
    m "dbclient.fsync_per_stmt" "count" c.fsync_per_stmt;
    m "dbclient.replica_read_share" "ratio" c.replica_read_share;
    m "dbclient.response_bytes_per_stmt" "bytes" c.response_bytes_per_stmt;
    m "dbclient.stmt_p50_first_us" "us" (median (concat (fun r -> r.first_us) incl_runs));
    m "dbclient.stmt_p50_last_us" "us" (median (concat (fun r -> r.last_us) incl_runs));
    m "dbclient.repl_stmt_p50_first_us" "us" (median repl.first_us);
    m "dbclient.repl_stmt_p50_last_us" "us" (median repl.last_us);
    m "tpch.dbgen_s" "s" (median dbgen_s);
    m "obs.trace_overhead_pct" "%" overhead_pct ]

(* ---------------------------------------------------------------- *)
(* Entry point                                                       *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N (--seconds S --trace 0|1 | \
     --counts)";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and counts_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--counts" :: rest -> counts_only := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let kind =
    match List.assoc_opt !workload W.all with Some k -> k | None -> usage ()
  in
  if !seed < 0 then usage ();
  if (not !counts_only) && (!seconds < 1 || (!trace <> 0 && !trace <> 1)) then
    usage ();
  Ldv_obs.set_sink Ldv_obs.Null;
  Reference.init ();
  let size = W.size ~small:!counts_only kind in
  let ctx, dbgen_s = setup ~kind ~seed:!seed ~size in
  let steps = steps_of ctx in
  if !counts_only then begin
    keep_audit := true;
    let expected, _ = steps.native () in
    let incl = steps.audited Audit.Included ~expected in
    let excl = steps.audited Audit.Excluded ~expected in
    let c, _ = count_audit ctx (Option.get ctx.last_audit) in
    Printf.printf
      "{\"failed\": %d, \"package_bytes\": %d, \"package_excl_bytes\": %d, \
       \"prov.trace_edges\": %d, \"perm.lineage_tuples\": %d, \
       \"slice.relevant_tuples\": %d, \"dbclient.fsync_per_stmt\": %.17g, \
       \"dbclient.replica_read_share\": %.17g}\n"
      !failed incl.bytes excl.bytes c.trace_edges c.lineage_tuples
      c.relevant_tuples c.fsync_per_stmt c.replica_read_share;
    exit (if !failed = 0 then 0 else 1)
  end;
  (* what the native run returns, which every later run must return,
     then one untimed warm-up round; both in children, so that the
     parent's heap keeps the layout set-up left it with *)
  compact ();
  let expected =
    match in_child (fun () -> fst (steps.native ())) with
    | Some r -> r
    | None -> exit 1
  in
  ignore (round ctx steps ~expected ~n:0);
  (* set-up and warm-up count against the run's seconds *)
  let deadline = process_start +. float_of_int !seconds in
  let metrics =
    if !trace = 0 then begin
      let setup_s = ref [] in
      let sample_setup () =
        Option.iter
          (fun s -> setup_s := s :: !setup_s)
          (in_child (fun () ->
               let _, s, _ = setup_sample ~kind ~seed:!seed ~size in
               s))
      in
      (* set-up samples: one before the first round and one after every
         second round, so that they spread over the run as the rounds do *)
      sample_setup ();
      let rounds =
        repeat_until deadline (fun i ->
            let r = round ctx steps ~expected ~n:(i + 1) in
            if i mod 2 = 0 then sample_setup ();
            r)
        |> List.filter_map Fun.id
      in
      if rounds = [] || !failed > 0 then begin
        prerr_endline "ldvbench: a check failed; no result";
        exit 1
      end;
      end_to_end ~setup_s:!setup_s
        ~query_stat:(if W.is_tpch kind then median else mean)
        rounds
    end
    else begin
      (* pairs of an untraced and a traced round; the per-layer figures
         come from the traced ones, the ratio of their measured times
         shows what tracing costs; the layer probes run after the
         deadline *)
      let pairs =
        repeat_until deadline (fun i ->
            let plain = round ctx steps ~expected ~n:((2 * i) + 1) in
            Spans.enabled := true;
            let traced = round ctx steps ~expected ~n:((2 * i) + 2) in
            Spans.enabled := false;
            match (plain, traced) with
            | Some p, Some t -> Some (p, t)
            | _ -> None)
        |> List.filter_map Fun.id
      in
      if pairs = [] || !failed > 0 then begin
        prerr_endline "ldvbench: a check failed; no result";
        exit 1
      end;
      let overhead_pct =
        100.
        *. median (List.map (fun (_, t) -> round_s t) pairs)
        /. median (List.map (fun (p, _) -> round_s p) pairs)
      in
      let incls = List.map (fun (_, t) -> t.r_incl) pairs in
      (* the layer probes need an included audit: one more included
         step keeps its audit, untraced, then the probes run traced *)
      let ms =
        in_child (fun () ->
            keep_audit := true;
            ignore (steps.audited Audit.Included ~expected);
            Spans.enabled := true;
            per_layer ctx ~dbgen_s ~overhead_pct ~incls)
      in
      let dir = "ldvbench/out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Spans.write_jsonl
        (Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir !workload !seed);
      match ms with
      | Some ms when !failed = 0 -> ms
      | _ ->
        prerr_endline "ldvbench: a check failed; no result";
        exit 1
    end
  in
  let correct = !failed = 0 in
  print_report
    ~title:
      (Printf.sprintf "ldvbench %s seed=%d trace=%d attempted=%d failed=%d"
         !workload !seed !trace !attempted !failed)
    metrics;
  print_endline (json_of_metrics ~correct metrics);
  exit (if correct then 0 else 1)
