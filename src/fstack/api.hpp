// The F-Stack-compatible public API, CHERI-ported — v2: batch-first.
//
// v1 mirrored the BSD socket API one call at a time; every call paid one
// compartment crossing, one capability validation and one stack-mutex
// acquisition (paper Fig. 4: ~125 ns of trampoline per ff_write, Fig. 6:
// the per-call lock is the scaling cliff). v2 redesigns the surface around
// batches so those fixed costs amortize over N buffers per call, while the
// v1 calls remain as thin single-element wrappers.
//
// v1 -> v2 migration table
// ------------------------------------------------------------------------
//  v1 (one crossing per call)         | v2 (one crossing per batch)
// ------------------------------------|-----------------------------------
//  ff_write(fd, cap, n)               | ff_writev(fd, {iov...})
//  ff_read(fd, cap, n)                | ff_readv(fd, {iov...})
//  ff_sendto / ff_recvfrom x N        | UDP bursts (retired in v13)
//  copy into cap, then ff_write       | ff_zc_alloc + write + ff_zc_send
//  ff_read copies out of the stack    | ff_zc_recv(fd, {loan...}) +
//    (RX byte ring memcpy per call)   |   ff_zc_recycle[_batch]: read-only
//                                     |   mbuf loans, zero receive copies
//  ff_epoll_wait(epfd, evs) per loop  | ff_epoll_wait_multishot(epfd, ring)
//    (one crossing per wait)          |   armed ONCE; event batches land in
//                                     |   the caller's capability ring every
//                                     |   main-loop iteration, no re-cross
// ------------------------------------------------------------------------
//  semantics deltas:
//   * one check covers the whole batch and is ATOMIC: any invalid element
//     is refused before a byte moves (fstack/boundary.hpp);
//   * short counts replace -EAGAIN when only part of a batch fits;
//   * zero-length iovecs are legal and skipped; an all-empty batch is 0;
//   * a consumed FfZcBuf token (double ff_zc_send / send after abort)
//     returns -EINVAL;
//   * ff_zc_recv loans are exactly bounded and READ-ONLY; the data room
//     returns to the pool only through ff_zc_recycle, and a double recycle
//     or forged token is -EINVAL; outstanding loans stay charged against
//     the receive window, so a slow recycler throttles its peer;
//   * ff_read/ff_readv interleave freely with outstanding loans: bytes
//     still arrive in order (the copy is simply taken lazily from the
//     queued RX chain instead of an eager per-segment memcpy);
//   * multishot events are activity-triggered: an fd re-reports when its
//     readiness mask changes OR when new readiness activity lands (more
//     bytes / another queued connection) while the mask is unchanged —
//     consumers must drain and tolerate events for data already consumed
//     (io_uring multishot discipline).
//
// v2 -> v3 migration table: the ff_uring unified boundary
// ------------------------------------------------------------------------
// v3 converges the three separate v2 amortization channels — syscall batch
// envelopes, the multishot epoll event ring, and the zc loan/recycle token
// calls — into ONE io_uring-style submission/completion capability-ring
// pair (fstack/uring.hpp) armed by a single ff_uring_attach crossing and
// drained by the stack's main loop with ZERO crossings per operation in
// steady state (doorbell crossings only on empty->non-empty SQ transitions
// while the stack is parked).
//
//  v2 (one crossing per batch)         | v3 (zero crossings per op)
// -------------------------------------|----------------------------------
//  ff_writev(fd, {iov...})             | SQE OP_WRITEV: <= 8 exactly-
//                                      |   bounded iovec caps per entry
//  (UDP bursts)                        | SQE OP_SENDMSG_BATCH (retired
//                                      |   in v13; opcode 2 is a hole)
//  ff_zc_alloc(len, &zc) x N           | SQE OP_ZC_ALLOC: one CQE per
//                                      |   reservation (token + WRITABLE
//                                      |   bounded cap into the data room)
//                                      |   — zc TX with no per-alloc
//                                      |   crossing
//  ff_zc_send(fd, zc, len)             | SQE OP_ZC_SEND (token in a0);
//                                      |   on a TCP fd the slice joins the
//                                      |   send queue as a retained mbuf
//                                      |   ref held until cumulative ACK
//  ff_zc_recv(fd, {loan...})           | SQE OP_ZC_RECV: one CQE per loan
//                                      |   (token + source + loan cap)
//  ff_zc_recycle_batch({zc...})        | SQE OP_RECYCLE: <= 16 tokens per
//                                      |   entry, per-token verdicts
//  ff_accept x N / accept_batch        | SQE OP_ACCEPT_MULTISHOT: armed
//                                      |   once; every accepted conn posts
//                                      |   a CQE with the new fd
//  ff_epoll_wait_multishot(epfd, ring) | SQE OP_EPOLL_ARM: readiness lands
//                                      |   as CQEs in the same CQ as every
//                                      |   other completion
//  syscall batch envelope              | unchanged in v3 (carried by a
//   (trampoline batch entry)           |   ring of the same shape); RETIRED
//                                      |   after v10 with its last producer,
//                                      |   the Scenario 2 iperf interval
//                                      |   telemetry: a trampoline has one
//                                      |   entry, invoke() — one syscall
//                                      |   per crossing
// ------------------------------------------------------------------------
//  semantics deltas (v3):
//   * the whole pending SQ window is validated in ONE sweep per drain, but
//     verdicts are PER ENTRY: a refused SQE payload earns that entry alone
//     -EINVAL (fstack/boundary.hpp), never the rest of the sweep;
//   * a full CQ backpressures: the stack defers the SQE (and multishot
//     publications) and retries next iteration — no CQE is ever dropped;
//   * SQE buffer caps belong to the app again once its CQE is reaped; CQE
//     loan caps follow the PR-2 recycle contract (window-charged until
//     OP_RECYCLE);
//   * TCP zc TX ownership: an OP_ZC_ALLOC grant belongs to the app until
//     OP_ZC_SEND succeeds (or ff_zc_abort); from then on the STACK owns
//     the mbuf reference until the bytes are cumulatively ACKed — a
//     partial ACK trims the head slice, retransmission re-reads the live
//     data room, and connection teardown (FIN completion / RST / RTO
//     give-up) releases every retained reference. A consumed or forged
//     token answers -EINVAL before any TCP state mutates; -EAGAIN (send
//     window full) keeps the reservation valid for retry;
//   * every v2 call above keeps working as a thin shim over the same
//     stack internals — v3 is additive, not a flag day.
//
// v4: scatter-gather wire emission (no new surface; semantics below)
// ------------------------------------------------------------------------
// Frame emission is now true scatter-gather end to end (the API is
// unchanged; what changed is what the stack does with the bytes):
//   * headers serialize straight into a header mbuf's headroom; payload
//     leaves as INDIRECT mbufs (updk::Mempool::alloc_indirect) chained
//     over the still-live send-queue stores — zero payload byte copies at
//     emission, first transmission and retransmission alike (the
//     chained-mbuf driver ABI, ownership and the RX linearization rule
//     are documented in updk/mbuf.hpp);
//   * every slice admitted into a send queue caches its partial checksum,
//     computed ONCE when the bytes enter the stack (during the admit copy
//     for ff_write/ff_writev, one capability walk at ff_zc_send);
//     per-segment checksumming composes those partials offset-aware
//     (fstack/checksum.hpp checksum_combine) in O(#slices) — emission
//     never re-reads payload (TxStats::emit_payload_reads gates at 0 for
//     the zc census). MSS-sized zc slices keep segments slice-aligned;
//   * outbound frames STAGE per main-loop turn and leave through one
//     driver tx_burst of up to 32 chains (every emitting API call flushes
//     before returning, so inline callers and Scenario-2 proxies keep
//     synchronous wire progress); a full device ring defers staged frames
//     to the next flush — backpressure, not loss;
//   * receivers coalesce ACKs GRO-style (every 8th in-order segment,
//     kAckCoalesceSegments in tcp_input.cpp), which is what lets the
//     ACK-clocked sender fill those bursts; a µs-scale idle flush
//     (TcpConfig::ack_flush_timeout, the napi gro_flush_timeout analogue)
//     ACKs a paused sub-threshold tail so small-cwnd flows stay
//     ACK-clocked instead of delack-clocked, with the delayed-ACK timer
//     as the outer protocol bound; congestion control counts acked bytes
//     (RFC 3465), so stretch ACKs do not slow cwnd growth;
//   * frames to an unresolved next hop park on the ARP queue as mbufs,
//     bounded per hop in frames AND bytes with a pending-resolution TTL
//     (drops and expirations counted in ArpCache::Stats).
//
// v4 -> v5 migration table: the ring-native control plane
// ------------------------------------------------------------------------
// v3/v4 left connect, close and epoll_ctl as the last per-call crossings —
// exactly the tax a churn-heavy proxy pays per CONNECTION rather than per
// byte. v5 moves the whole connection lifecycle onto the ring: after the
// one ff_uring_attach, a client never crosses again (doorbells aside).
//
//  v4 (one crossing per call)          | v5 (zero crossings per lifecycle)
// -------------------------------------|----------------------------------
//  ff_connect(fd, addr) -> -EINPROGRESS| SQE OP_CONNECT (a0 = packed
//    + epoll EPOLLOUT wait + getsockopt|   addr): ONE verdict CQE when the
//    -style completion probe           |   handshake RESOLVES — result 0
//                                      |   on ESTABLISHED, -errno on
//                                      |   refusal/timeout; never an
//                                      |   intermediate -EINPROGRESS
//  ff_close(fd)                        | SQE OP_CLOSE: immediate-verdict
//                                      |   CQE (result = close verdict,
//                                      |   aux0 echoes the fd)
//  ff_epoll_ctl(epfd, op, fd, ev)      | SQE OP_EPOLL_CTL (a0 = EpollOp,
//                                      |   a1 = target fd, a2 = events,
//                                      |   a3 = user data): immediate
//                                      |   per-entry verdict CQE
//  epoll_ctl(ADD) per accepted fd      | OP_ACCEPT_MULTISHOT auto-arm
//                                      |   (retired in v13: OP_EPOLL_CTL
//                                      |   + OP_EPOLL_ARM instead)
// ------------------------------------------------------------------------
//  semantics deltas (v5) — control-plane ownership rules:
//   * OP_CONNECT pins the fd's verdict to the submitting ring: the CQE
//     arrives on THAT ring even if the app also polls classically; a bad
//     fd answers an inline -EBADF CQE on the next drain;
//   * OP_CLOSE ends app ownership of the fd at CQE time — later classic
//     calls on it are -EBADF — but zc RX loan tokens OUTLIVE the
//     connection: each outstanding token still owes exactly one
//     OP_RECYCLE/ff_zc_recycle (a pure pool return once the PCB died) and
//     replays still answer -EINVAL;
//   * listener SYN queues are BOUNDED (listen backlog caps embryonic
//     PCBs; a full accept queue also refuses new SYNs): surplus SYNs are
//     dropped and counted (TcpPcb::syn_backlog_drops), and the client's
//     retransmit makes overflow a deferral, not a denial;
//   * per-PCB protocol timers (RTO, delack, persist, TIME_WAIT, ARP
//     pending TTL) live in a hierarchical timing wheel
//     (fstack/timer_wheel.hpp): a loop turn costs O(due timers), not
//     O(connections) — the bench/churn_connection_scale.cpp census gates
//     10^5 idle PCBs at <= 2x the 10^3 per-turn cost;
//   * every classic call keeps working — v5 is additive, not a flag day.
//
// ------------------------------------------------------------------------
// v5 -> v6 migration table: sharded stacks + RSS multi-queue steering
// ------------------------------------------------------------------------
// v5 scaled the API; the one shared stack mutex still serialized every
// flow behind it. v6 runs N independent FfStack shards — each with its own
// mempool, PCB table, ARP cache, timer wheel and uring drain set — and
// steers flows with the NIC's multi-queue RSS (nic/e82576.hpp: per-queue
// RX/TX rings, Toeplitz 5-tuple hash through a 128-entry RETA, 8 L4
// destination-port filters). Nothing in THIS header changed shape: v6 is
// a topology migration, not a call-signature one.
//
//  v5 (one stack, one mutex)           | v6 (N shards, per-shard mutexes)
// -------------------------------------|----------------------------------
//  FullStackInstance(card, port, ...)  | FullStackInstance(card, port, q,
//    single-queue attach               |   queue_count, ...): shard q of
//                                      |   queue_count on one port; first
//                                      |   attach configures the port,
//                                      |   sibling attaches are idempotent
//  Scenario2Service(iv, cvm1, inst)    | Scenario2Service(iv, cvm1,
//                                      |   {&inst0, ..., &instN-1}): one
//                                      |   compartment mutex PER SHARD
//  svc.make_proxy_ops(app)             | svc.make_proxy_ops(app, shard):
//                                      |   ATTACH-TIME PINNING — every op,
//                                      |   uring and mutex word the app
//                                      |   touches belongs to that shard
//                                      |   for the app's whole lifetime
//  svc.run_loop(stop, arb)             | one polling loop per shard
//                                      |   (run_loop retired in v10, the
//                                      |   per-shard loop in v11)
//  dev.poll(now) (whole device)        | dev.poll_queue(port, q, now):
//                                      |   TX for the CALLER'S queue only
//                                      |   + the shared RX classify drain
//
//  semantics deltas (v6) — flow placement rules:
//   * a connection lives and dies on ONE shard: ff_connect picks an
//     ephemeral port whose REPLY-direction Toeplitz hash RETA-maps to the
//     owning shard's RX queue; ff_listen pins the listener port to the
//     shard's queue with an L4 filter (priority over RSS);
//   * non-IPv4 frames (ARP) replicate to EVERY queue — each shard keeps
//     its own neighbour cache, so no shard ever asks a sibling;
//   * the only cross-shard surface is the NIC port itself (doorbells +
//     wire serialization behind one short per-port mutex) — PCBs, mbufs
//     and timers are reachable from exactly one shard's capabilities;
//   * the compartment mutex is now per shard: contention exists only
//     between an app and ITS OWN service loop, never between flows on
//     different shards (bench/ablation_locking.cpp gates the sharded leg
//     at zero contended acquisitions);
//   * every classic single-instance construction keeps working — shard
//     count 1 (or the legacy ctor) is byte-for-byte the v5 behaviour.
//
// ------------------------------------------------------------------------
// v6 -> v7 migration table: classed QoS TX scheduling
// ------------------------------------------------------------------------
// v6 emission drained the per-turn TX stage FIFO, so one bulk flow could
// fill every burst slot and park a latency-critical flow behind 32
// full-size frames. v7 stages frames into per-class queues drained by
// deficit round-robin with optional per-class token-bucket pacing
// (fstack/qos.hpp); every v6 call keeps working and every flow defaults to
// class 0 — v7 is additive.
//
//  v6 (FIFO TX stage)                  | v7 (classed QoS stage)
// -------------------------------------|----------------------------------
//  (no per-flow class)                 | ff_set_class(st, fd, cls):
//                                      |   fd's flow rides QoS class
//                                      |   cls (0..kQosClasses-1); on a
//                                      |   listener, subsequently accepted
//                                      |   children inherit the class
//  (no ring-native equivalent)         | OP_SET_CLASS (uring.hpp): a0 =
//                                      |   class; immediate verdict CQE —
//                                      |   class changes ride the ring like
//                                      |   every other v5 control op
//  (no scheduler config)               | FfStack::set_qos_config(QosConfig):
//                                      |   per-class rate_bytes_per_sec
//                                      |   (token bucket; 0 = unlimited),
//                                      |   burst_bytes, quantum_bytes
//                                      |   (DRR), queue_cap
//  stats().tx_stage_deferred/_drops    | same fields, same meaning; plus
//                                      |   FfStack::qos().stats() per-class
//                                      |   enqueued/sent/throttled counters
//
//  semantics deltas (v7):
//   * a token-paced frame STAYS STAGED until virtual time refills its
//     bucket (pacing, not loss); FfStack::next_deadline() reports the
//     release instant so the loop driving the clock wakes exactly then;
//   * TCP carries the class on the PCB — ACKs, retransmits and FIN ride
//     the flow's class, and accepted children inherit the listener's;
//   * the stack's own control traffic (ARP) rides the top class
//     (kQosClassControl), so bulk data cannot starve next-hop resolution.
//
// ------------------------------------------------------------------------
// v7 -> v8 migration table: hardware offload through the device model
// ------------------------------------------------------------------------
// v7 checksummed every TX segment in software (composable cached partials,
// but still a fold per segment) and software-verified every RX datagram.
// v8 negotiates offload capabilities against the device at attach
// (updk/ethdev.hpp kOffload* bits, masked by the PMD to what the silicon
// supports) and moves the work into the 82576 model: legacy css/cso
// checksum insertion over gathered chains, advanced context descriptors,
// RX descriptor checksum verdicts, and TSO slicing of super-segments.
// Nothing in THIS header changed shape — v8 is a capability negotiation,
// not a call-signature change; a queue attached with offloads = 0 runs the
// v7 software path byte-for-byte.
//
//  v7 (software checksums)             | v8 (negotiated offloads)
// -------------------------------------|----------------------------------
//  (stack always folds checksums)      | EthConf.offloads requests
//                                      |   kOffloadTxTcpCsum / TxUdpCsum /
//                                      |   TxTso / RxCsum; EthDev::
//                                      |   offloads() reports the masked
//                                      |   set; FfStack::
//                                      |   negotiated_offloads() is what
//                                      |   the stack actually elides work
//                                      |   against (default: checksums on,
//                                      |   TSO opt-in)
//  checksum walk per emitted segment   | tcp_emit/udp_emit seed the L4
//                                      |   field with the folded pseudo
//                                      |   sum and hand geometry to the
//                                      |   driver via mbuf ol_flags +
//                                      |   l2/l3/l4_len (updk/mbuf.hpp
//                                      |   offload ABI); tx_stats().
//                                      |   stack_checksum_bytes counts
//                                      |   software-walked bytes — 0 on
//                                      |   the offload path
//  segments capped at MSS              | with kOffloadTxTso negotiated the
//                                      |   PCB emits super-segments up to
//                                      |   TcpConfig.tso_max_segs * MSS;
//                                      |   the device slices to wire MSS
//                                      |   with per-frame IP id/seq/csum
//                                      |   fixup (FIN/PSH only on the last
//                                      |   slice); dev().stats().
//                                      |   tso_frames / tso_bytes census
//  software verify per RX datagram     | RX descriptors carry device
//                                      |   checksum verdicts (mbuf
//                                      |   kRxCsumIpGood/Bad, L4Good/Bad);
//                                      |   Good elides the software fold,
//                                      |   Bad drops at the stack's
//                                      |   verdict check (stats().
//                                      |   csum_errors) — corruption past
//                                      |   the FCS cannot reach a socket
//
//  semantics deltas (v8):
//   * offload capability is PER QUEUE: shards of one port may negotiate
//     different sets, and a masked queue falls back to software with
//     identical wire bytes (tests/test_offload.cpp pins both);
//   * frames the device could not parse (non-IPv4, fragments, UDP
//     checksum 0) carry no verdict and verify in software as before;
//     reassembled datagrams always software-verify their L4 sum;
//   * TSO is excluded from kOffloadDefault: it changes emission
//     granularity (one super-segment = one descriptor chain), which the
//     frames-per-doorbell gates in bench/table2 would misread as a
//     regression — enable it per queue via EthConf.offloads = kOffloadAll.
//
// ------------------------------------------------------------------------
// v8 -> v9 migration table: multi-tenant quotas and graceful degradation
// ------------------------------------------------------------------------
// v8 assumed the app compartments sharing one stack trust each other with
// the stack's SHARED resources: any ring could pin the whole mbuf pool in
// loans, monopolize the 64-SQE drain budget, or force unbounded stack-side
// completion state by never reaping its CQ. v9 adds per-tenant accounting
// so a hostile or buggy compartment degrades ONLY itself. Every v8 call
// keeps its exact signature and semantics — tenancy is opt-in per fd/ring;
// an app that never calls ff_tenant_register runs the v8 behaviour
// byte-for-byte (tenant id 0 = unlimited, uncounted).
//
//  v8 (mutual trust)                    | v9 (per-tenant quotas)
// -------------------------------------|----------------------------------
//  all sockets/rings share one pool    | ff_tenant_register(name, quota)
//    and drain budget, first come      |   mints a tenant id; ff_set_tenant
//    first served                      |   (fd) and ff_uring_bind_tenant
//                                      |   (ring) bill resources to it
//                                      |   (tenant.hpp quota-knob table)
//  a loan/reservation/parked frame     | each pinned room charges the
//    pins a pool room anonymously      |   owner's max_pool_mbufs budget
//                                      |   (plus per-cause caps); over
//                                      |   budget the OFFENDER alone gets
//                                      |   -ENOBUFS/-EMFILE, retriable by
//                                      |   recycling — neighbours' calls
//                                      |   never see a tenant's verdicts
//  SQ drain round-robins equally       | rings drain DRR-style under
//                                      |   sq_drain_weight; a throttled
//                                      |   ring's SQEs stay queued in ITS
//                                      |   ring memory (-EAGAIN shape) and
//                                      |   the cut is counted
//  a full, never-reaped CQ forces the  | full-CQ-with-work rounds count as
//    stack to retain and re-walk arms  |   cq_deferrals; past the tenant's
//    forever                           |   max_cq_stall_rounds the ring's
//                                      |   RE-DERIVABLE accept/readiness
//                                      |   arms are evicted (counted) —
//                                      |   stack-side deferral state is
//                                      |   bounded per ring
//  misbehaviour diagnosed from global  | ff_tenant_stats(st, tid): per-
//    ApiStats only                     |   tenant gauges + per-cause
//                                      |   reject counters; gauges return
//                                      |   to 0 on release, proving no leak
//  no recovery from a hostile peer     | ff_tenant_evict(st, tid) reclaims
//    short of stack teardown           |   every PCB, wheel timer, loan,
//                                      |   reservation and parked frame to
//                                      |   baseline; neighbours untouched
//
//  semantics deltas (v9):
//   * zc tokens are tenant-scoped: a token submitted from a ring bound to
//     a DIFFERENT tenant answers -EINVAL with all state intact (replay/
//     forgery across compartments is inert);
//   * accepted children inherit the listener's tenant (as with tclass) and
//     charge its socket gauge at accept — past max_sockets the child is
//     aborted at the accept boundary, not left half-open;
//   * scenarios/scenario3.hpp drives N tenant compartments over one stack
//     with hostile-profile fault injection (scenarios/adversary.hpp).
//
// ------------------------------------------------------------------------
// v9 -> v10 migration table: one readiness delivery path
// ------------------------------------------------------------------------
// v10 retires the v2 multishot event ring. OP_EPOLL_ARM (v3) delivers the
// same readiness stream, through the same EpollInstance mask/generation
// dedup, as CQEs in the ring the app already reaps; a second delivery shape
// into a second app-provided ring was one more pair of sealed entries to
// validate and fuzz for nothing. EpollInstance keeps one delivery path:
// the completion sink. v10 removes surface and adds none.
//
//  v9                                  | v10
// -------------------------------------|----------------------------------
//  ff_epoll_wait_multishot(epfd, ring) | SQE OP_EPOLL_ARM on an attached
//    + FfEventRing::pop() per loop     |   ff_uring: readiness CQEs with
//                                      |   kCqeMore while armed (or plain
//                                      |   ff_epoll_wait, one call a loop)
//  ff_epoll_cancel_multishot(epfd)     | ff_uring_detach disarms every
//                                      |   OP_EPOLL_ARM of that ring;
//                                      |   re-arming moves the delivery
//  FfEventRing (fstack/event_ring.hpp) | the FfUring CQ (fstack/uring.hpp)
//  Scenario-2 sealed entries           | removed: the proxy exports two
//    ff_epoll_wait_multishot /         |   fewer entry points
//    ff_epoll_cancel_multishot         |
//  FfOps::epoll_wait_multishot /       | -ENOTSUP defaults, no binding
//    epoll_cancel_multishot            |   implements them
//  FfOps::writev / readv per-element   | pure virtual: every binding
//    "degrade" defaults                |   implements the batched path
//  IperfServer::use_multishot          | IperfServer::use_uring
//  Scenario2Service::run_loop          | the shard-0 polling loop
//                                      |   (itself retired in v11)
//
//  semantics deltas (v10): none for OP_EPOLL_ARM, whose dedup state is the
//  one the event ring shared. ApiStats::multishot_arms / multishot_events
//  now count OP_EPOLL_ARM arms and readiness CQEs only.
//
// ------------------------------------------------------------------------
// v10 -> v11 migration table: one driver for every emulated run
// ------------------------------------------------------------------------
// v11 retires the last threaded drivers of the scenario layer. Every
// figure, table and scenario test now runs on scen::LockstepRig: the app
// bodies, the stack loops (each under its shard mutex) and the peers take
// turns on the caller's thread, and virtual time moves only when nothing
// progressed. The conservative time arbiter that paced host threads
// against the virtual clock went with its last users. No call in THIS
// header changed; v11 removes surface and adds none.
//
//  v10                                 | v11
// -------------------------------------|----------------------------------
//  Scenario2Service per-shard polling  | LockstepRig::turn() runs each
//    loop on a cVM1 thread, parked on  |   shard's run_once under its
//    the arbiter (stop flag + arbiter) |   mutex inside cVM1; idle() parks
//                                      |   the rings and advances the clock
//  PeerHost::start / join and the      | PeerHost::step() from the same
//    stop request (a polling thread)   |   turn; next_deadline() feeds the
//                                      |   rig's earliest-deadline jump
//  MorelloTestbed::arbiter()           | removed with sim's arbiter and
//                                      |   participant types
//  nic::Wire(clock, arbiter, tb) woke  | nic::Wire(clock, nullptr, tb):
//    parked threads on each transmit   |   the slot stays, unused
//
//  semantics deltas (v11): the Fig. 4-6 probes take one measured call per
//  endpoint per turn; the paced uncontended writer's next write is its due
//  time in the rig's deadline choice. On one thread every stack-mutex
//  acquisition is a fast path, so LatencyOutcome::mutex_contended is 0.
//
// ------------------------------------------------------------------------
// v11 -> v12 migration table: 18 sealed entries, each run as its tenant
// ------------------------------------------------------------------------
// Scenario 2 exported 23 sealed entries per app. Five repeated a ring op or
// a v1 call, and three of those ran with no tenant context: a proxied
// zc_alloc dodged its tenant's quotas, a proxied zc_abort could drop a
// neighbour's reservation. v12 retires the five. The calls in THIS header
// stay: they run inside one compartment and are not boundary entries.
//
//  v11 sealed entry (FfOps virtual)    | v12
// -------------------------------------|----------------------------------
//  ff_zc_alloc / ff_zc_send            | SQE OP_ZC_ALLOC / OP_ZC_SEND
//  ff_zc_abort                         | SQE OP_ZC_ABORT (new; a0 = token;
//                                      |   -EINVAL for a consumed, forged
//                                      |   or neighbour's token)
//  ff_set_class                        | SQE OP_SET_CLASS
//  ff_accept_batch                     | accept() per fd, as IperfServer
//                                      |   does, or OP_ACCEPT_MULTISHOT
//  the five FfOps virtuals             | -ENOTSUP in every binding
//  only the ring drain ran as a tenant | every entry runs as the app's
//                                      |   tenant (FfStack::TenantScope;
//                                      |   the doorbell's drain nests)
//
//  semantics deltas (v12):
//   * a tenant's ff_zc_recycle entry cannot recycle a neighbour's loan;
//   * ff_zc_recv and ff_epoll_wait check that the app's buffer takes every
//     record BEFORE the stack call (-EFAULT otherwise), so no loan or event
//     strands in cVM1; every entry answers -EFAULT for an argument its
//     row of fstack/boundary.hpp refuses;
//   * apps::UringZcTxProto aborts every reservation a dead pipeline still
//     holds, grants that land after the failure included.
//
// ------------------------------------------------------------------------
// v12 -> v13 migration table: one implementation per datagram operation
// ------------------------------------------------------------------------
// v12 had four UDP send paths, four UDP receive paths and two readiness
// publishers; nothing outside the tests reached the extra ones. v13 keeps
// one of each and removes surface without adding any: no option, knob or
// opcode is new. Opcode numbers stay stable.
//
//  v12                                 | v13
// -------------------------------------|----------------------------------
//  UDP burst send (the sendmmsg        | ff_sendto per datagram; opcode 2
//    analogue) and OP_SENDMSG_BATCH    |   earns the unknown-opcode -EINVAL
//  UDP burst receive (the recvmmsg     | ff_recvfrom copies; ff_zc_recv /
//    analogue, copy and loan modes)    |   OP_ZC_RECV lend
//  ff_zc_send / OP_ZC_SEND on UDP      | ff_sendto; zc send is TCP only,
//                                      |   a UDP fd answers -EBADF before
//                                      |   the token is looked at (so it
//                                      |   still aborts); ff_zc_send drops
//                                      |   its ignored `to` argument
//  the recvmmsg-style burst timeout,   | none: a receive returns what is
//    OP_ZC_RECV's a1 timeout and its   |   queued
//    aux1 "coalescing" CQE flag        |
//  OP_ACCEPT_MULTISHOT a0 bit 0        | OP_EPOLL_CTL + OP_EPOLL_ARM; a0 is
//    (accept auto-arm)                 |   reserved: nonzero earns -EINVAL
//
//  semantics deltas (v13):
//   * every fd-taking entry (sock_*, epoll_ctl/_wait, the ring's accept
//     and epoll arms) resolves the fd as the active tenant: a neighbour's
//     fd answers -EBADF, the rule zc tokens already followed (untenanted
//     fds and callers see every fd);
//   * ff_recvfrom checks the destination before it dequeues, and clamps
//     the copy to its bounds: a bad buffer faults with the datagram still
//     queued.
//
// The capability-qualified buffer handle is machine::CapView — the
// `void* __capability` of the paper's modified F-Stack API; this header
// remains the surface Table I's "modified LoC" census counts.
#pragma once

#include <cstdint>
#include <span>

#include "fstack/api_types.hpp"
#include "fstack/stack.hpp"
#include "fstack/uring.hpp"

namespace cherinet::fstack {

inline constexpr int kAfInet = 2;
inline constexpr int kSockStream = 1;
inline constexpr int kSockDgram = 2;

/// Create a socket. Returns fd (>= 3) or -errno.
int ff_socket(FfStack& st, int domain, int type, int protocol);

int ff_bind(FfStack& st, int fd, const FfSockAddrIn& addr);
int ff_listen(FfStack& st, int fd, int backlog);
/// Non-blocking accept: fd, -EAGAIN when the queue is empty.
int ff_accept(FfStack& st, int fd, FfSockAddrIn* peer);
/// Non-blocking connect: -EINPROGRESS, completion via ff_epoll (EPOLLOUT).
int ff_connect(FfStack& st, int fd, const FfSockAddrIn& addr);

// ---------------------------------------------------------------- v1 calls
// Thin wrappers over the batch path (one-element batches).

/// Capability-qualified write: queues into the socket send buffer.
/// Returns bytes queued, -EAGAIN when the buffer is full, or -errno.
std::int64_t ff_write(FfStack& st, int fd, const machine::CapView& buf,
                      std::size_t nbytes);
/// Capability-qualified read. Returns bytes, 0 at EOF, or -errno.
std::int64_t ff_read(FfStack& st, int fd, const machine::CapView& buf,
                     std::size_t nbytes);

std::int64_t ff_sendto(FfStack& st, int fd, const machine::CapView& buf,
                       std::size_t nbytes, const FfSockAddrIn& to);
/// One datagram, oldest first; the copy clamps to `buf`'s bounds. Returns
/// bytes copied or -EAGAIN; a bad buffer is refused before the dequeue.
std::int64_t ff_recvfrom(FfStack& st, int fd, const machine::CapView& buf,
                         std::size_t nbytes, FfSockAddrIn* from);

// ---------------------------------------------------------------- v2 batch
// Scatter-gather TCP. One check, one crossing, one lock for the whole
// vector. Returns total bytes moved (short count when the socket
// buffer fills mid-batch), 0 for an all-empty batch (or EOF on readv),
// -EAGAIN when nothing could move, or -errno.
std::int64_t ff_writev(FfStack& st, int fd, std::span<const FfIovec> iov);
std::int64_t ff_readv(FfStack& st, int fd, std::span<const FfIovec> iov);

// Zero-copy TX (TCP). ff_zc_alloc reserves an mbuf data room and hands the
// application a bounded capability straight into it; ff_zc_send submits the
// filled reservation — the payload is never copied through the socket
// layer. The slice joins the send queue as a RETAINED MBUF REFERENCE:
// tcp_output gathers segments directly out of the data room,
// retransmission re-reads the still-live buffer, and cumulative ACK is what
// finally releases the reference (a partial ACK trims the head slice).
// Returns 0/-errno from alloc (-EMSGSIZE over MTU, -ENOBUFS pool empty);
// bytes queued or -errno from send: -EBADF on a non-TCP fd and -EINVAL on a
// consumed or forged token, both BEFORE any state mutates; -EAGAIN (send
// window full) and -EMSGSIZE keep the reservation valid for retry.
// ff_zc_abort releases an unsent reservation.
int ff_zc_alloc(FfStack& st, std::size_t len, FfZcBuf* out);
std::int64_t ff_zc_send(FfStack& st, int fd, FfZcBuf& zc, std::size_t len);
int ff_zc_abort(FfStack& st, FfZcBuf& zc);

// Zero-copy RX (TCP and UDP). ff_zc_recv pops up to out.size() queued
// receive slices as exactly-bounded READ-ONLY capability loans into the RX
// mbuf data rooms — the bytes are never copied through a socket buffer.
// Returns loans filled, 0 at EOF, -EAGAIN when nothing is queued, or
// -errno. Each loan must be returned with ff_zc_recycle (the ONLY path by
// which the data room goes back to the pool); a double recycle or forged
// token is -EINVAL. ff_zc_recycle_batch recycles a whole burst and returns
// the number recycled.
std::int64_t ff_zc_recv(FfStack& st, int fd, std::span<FfZcRxBuf> out);
int ff_zc_recycle(FfStack& st, FfZcRxBuf& zc);
std::int64_t ff_zc_recycle_batch(FfStack& st, std::span<FfZcRxBuf> zcs);

int ff_close(FfStack& st, int fd);

// ------------------------------------------------------------------ v7 QoS
/// Assign fd's flow to TX traffic class `cls` (0 = default/bulk ..
/// kQosClasses-1 = highest; see qos.hpp). Listeners propagate the class to
/// subsequently accepted children. 0, -EBADF, or -EINVAL.
int ff_set_class(FfStack& st, int fd, std::uint32_t cls);

// epoll (the mechanism the paper ported iperf3 onto).
int ff_epoll_create(FfStack& st);
int ff_epoll_ctl(FfStack& st, int epfd, EpollOp op, int fd,
                 std::uint32_t events, std::uint64_t data);
int ff_epoll_wait(FfStack& st, int epfd, std::span<FfEpollEvent> events);

// ---------------------------------------------------------------- v3 uring
// The unified ring boundary (see fstack/uring.hpp for the ABI and the
// v2 -> v3 table above for the opcode mapping).

/// Arm: delegate a caller-initialized FfUring region (one crossing, whole
/// ring validated once). Returns a positive ring id or -errno.
int ff_uring_attach(FfStack& st, const machine::CapView& mem,
                    std::uint32_t sq_capacity, std::uint32_t cq_capacity);
/// Disarm: end the stack's use of the delegated ring capability.
int ff_uring_detach(FfStack& st, int id);
/// The doorbell crossing: kick an immediate drain. Only needed when the SQ
/// went empty->non-empty while the stack reported itself parked; a polling
/// stack drains every iteration on its own. Returns SQEs consumed.
int ff_uring_doorbell(FfStack& st, int id);

// ---- v9: per-tenant quotas (tenant.hpp has the quota-knob reference) ----

/// Register a tenant under `quota`; returns its id (>= 1). Id 0 is the
/// reserved unlimited/uncounted context every pre-v9 caller implicitly
/// uses — never returned here.
int ff_tenant_register(FfStack& st, std::string name,
                       const TenantQuota& quota);
/// Move fd into tenant `tid` (0 detaches it). -EMFILE past the tenant's
/// socket cap; TCP listeners pass the tenant to future accepted children.
int ff_set_tenant(FfStack& st, int fd, int tid);
/// Bind an attached ring to a tenant: weighted SQ drain, adopted charging
/// context for its ops, CQ-stall accounting against the tenant's cap.
int ff_uring_bind_tenant(FfStack& st, int ring_id, int tid);
/// Hard-evict a tenant: detach its rings, abort+close its sockets, reclaim
/// every loan/reservation/parked frame back to baseline. Neighbours are
/// untouched; the tenant's stats row survives for the census.
int ff_tenant_evict(FfStack& st, int tid);
/// The tenant's live gauges and per-cause counters (nullptr: unknown id).
const TenantStats* ff_tenant_stats(const FfStack& st, int tid);

}  // namespace cherinet::fstack
