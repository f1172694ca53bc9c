"""Fused batch loops over :class:`~repro.cache.array_state.ArrayCache` state.

This is the batch engine the oracle harness (``tests/test_batch_oracle.py``)
pins against the scalar loop: :func:`run_buffer_batch` runs one chunk of
:meth:`ChannelSimulator.run` in place of the scalar loop and produces
*bit-identical* final state — cache contents and stats, DRAM timing state
and stats, prefetcher tables and counters, metrics aggregates, queue
state — while running several times faster.  Where the speed comes from:

* **Vectorized decomposition** — block address, page number, segment
  offset and channel-block index for the whole chunk come from
  :func:`repro.sim.kernels.decompose_chunk` in four NumPy passes
  (``tolist()`` hands back exact Python ints).
* **Inlined cache operations, one DRAM body** — both loops work directly
  on the :class:`~repro.cache.array_state.ArrayCache` arrays: the lookup
  and fill of ``SetAssociativeCache.access``/``fill`` under LRU, inlined.
  The demand-only loop (:func:`_run_passive`) also fuses the metric
  recurrences into its loop body, so a cache hit makes no function call.
  Every DRAM request of either loop — demand read, prefetch, write-back —
  goes through one flattened closure (:func:`_dram_closures`), the batch
  engine's only copy of ``DRAMChannel.service_scalar`` +
  ``Bank.cas_time``.  The semantics mirror the scalar methods statement
  for statement — keep them in lockstep.
* **Derived counters** — monotone counters (hits/misses/fills/writebacks,
  metric read/write counts, DRAM request counts, data-bus cycles) are not
  incremented per record; they are reconstructed exactly at sync time from
  the tick delta, the deferred latency lists and the delayed-hit count.
  The active loop (:func:`_run_active`) derives its metric aggregates the
  same way at chunk end; the passive loop keeps them inline.  The rule
  reaches into the prefetchers too: SLP and TLP derive their metadata
  ``activity`` from observe/lookup counts instead of counting each table
  access.
* **Deferred exact Welford** — DRAM demand-read / prefetch latencies are
  appended to plain lists and folded into the ``RunningStats`` aggregates
  in one post-pass (:func:`_welford_into`): identical recurrence, identical
  order, so the floats match bit for bit, but the loop body stays short.
  Min/max fold via C-level ``min()``/``max()`` (order-free on ints).  The
  active loop treats its metric streams the same way: each measured
  latency (and each read's device value) goes to a chunk-local list, and
  :func:`_fold_metrics` folds the all/read Welford streams, the latency
  histogram and the per-device aggregates at chunk end, creating buckets
  and device entries in first-seen order.  The passive loop keeps its
  metric recurrences inline, where constant-latency hits skip the min/max
  compares and the histogram dict probe — the skipped contributions are
  merged once at sync (``min``/``max``/bucket counts are order-free,
  unlike the mean/M2 recurrence, which still runs per record).
* **Hit-trigger skipping** — every record is observed in scalar order;
  when the prefetcher declares ``hit_trigger_noop()`` (SLP, TLP,
  Planaria and throttle wrappers around them) a hit's ``issue`` call is
  skipped and the skipped calls are applied once at chunk end through
  ``skip_hit_triggers``.
* **Tenant way partitions** — a fill whose requester (the record's
  device; for a prefetch fill, the device whose access triggered it) has
  a configured partition takes its way from
  :func:`repro.cache.array_state.partition_victim`, which all four fill
  sites share.  Unpartitioned configs pay one truthiness test and one
  victim-tag test per fill.
* **Lineage** — an attached :class:`~repro.obs.lineage.LineageCollector`
  hears from the same rare branches the scalar loop reports from
  (prefetch-served access, skipped/unfilled/filled candidate, eviction of
  a prefetched block); queue-gate and issue-origin hooks fire from the
  queue and the prefetcher themselves.

Prefetch-queue activity and throttle state flips
(``notify_useful``/``notify_unused``) run per event, never deferred;
observability slices chunks before this function runs, so every epoch
close is also a chunk end.  Every chunk runs here: a
passive run over a cache still holding live prefetched blocks (only a
checkpoint restored from an active run leaves them) takes the active loop,
because the fused demand loop elides the prefetch-consumption bookkeeping.

Preconditions the batch loops *assume* instead of checking per record:

* arrival times never step back by more than tREFI (the engine
  contract).  ``ChannelSimulator.run`` checks it once per chunk, before
  either engine changes any state, and raises ``TraceOrderError``; the
  loops here drop the per-request guard of ``service_scalar``, which
  stays for direct DRAM callers.
"""

from __future__ import annotations

import gc
from collections import Counter

from repro.cache.array_state import partition_victim
from repro.sim import kernels
from repro.trace.buffer import _DEVICE_BY_VALUE
from repro.utils.statistics import RunningStats

#: Request-kind codes used inside the batch loop (no enum identity checks
#: on the hot path).  Demand write misses fetch-for-ownership as reads,
#: exactly like the scalar engine, so only three kinds ever reach DRAM.
_READ = 0
_PREFETCH = 1
_WRITEBACK = 2


def _welford_into(values, stats) -> None:
    """Fold a latency list into a :class:`RunningStats`, bit-identically.

    Replays ``stats.add(v)`` for each value in order — the same mean/M2
    recurrence, so deferring the samples to a post-pass cannot change a
    single bit.  Min/max use C-level ``min()``/``max()`` instead: on the
    integer latencies these are order-free, hence exact.
    """
    if not values:
        return
    count = stats.count
    mean = stats._mean
    m2 = stats._m2
    for latency in values:
        count += 1
        delta = latency - mean
        mean += delta / count
        m2 += delta * (latency - mean)
    stats.count = count
    stats._mean = mean
    stats._m2 = m2
    low = min(values)
    if stats.min is None or low < stats.min:
        stats.min = low
    high = max(values)
    if stats.max is None or high > stats.max:
        stats.max = high


def _dram_closures(dram, rd_lats, pf_lats, wb_cell):
    """Flatten one :class:`DRAMChannel` into a (service, sync) closure pair.

    ``service(block_addr, arrival_time, kind, source)`` replays
    ``DRAMChannel.service_scalar`` (including the inlined
    ``Bank.cas_time``) against local state: channel scalars live in
    closure cells, per-bank state in flat parallel lists, and the
    tFAW/outstanding deques are mutated in place.  Latency bookkeeping is
    deferred: demand-read / prefetch latencies append to the caller's
    ``rd_lats`` / ``pf_lats`` lists and write-backs bump ``wb_cell[0]`` —
    the caller derives the request counters, data-bus cycles and latency
    aggregates from those at chunk end (see the finally blocks in
    :func:`_run_active` / :func:`_run_passive`).  ``service`` is the batch
    engine's only DRAM timing code: both loops, warmup and measured
    segments alike, call it for every request.

    ``sync()`` writes the timing state back onto the channel, its banks
    and the bank-sum row statistics — call it exactly once, when the
    chunk ends (or unwinds).  Keep the body in lockstep with
    ``service_scalar`` / ``Bank.cas_time``; the oracle suite compares
    ``DRAMChannel.state_dict`` snapshots after every run, under the
    default and several non-default DRAM configs, so any drift is loud.
    """
    timing = dram.timing
    tREFI = dram._tREFI
    tRFC = timing.tRFC
    tWTR = dram._tWTR
    tRRD = dram._tRRD
    tFAW = dram._tFAW
    tCL = dram._tCL
    tCWL = dram._tCWL
    tWR = dram._tWR
    tRCD = timing.tRCD
    tRAS = timing.tRAS
    tRP = timing.tRP
    tCCD = timing.tCCD
    tRTP = timing.tRTP
    burst = dram._burst_cycles
    column_bits = dram._column_bits
    bank_mask = dram._bank_mask
    bank_bits = dram._bank_bits
    rank_mask = dram._rank_mask
    rank_bits = dram._rank_bits
    num_banks = dram._num_banks
    refresh_enabled = dram._refresh_enabled
    queue_depth = dram._queue_depth
    prefetch_defer = dram._prefetch_defer
    writeback_defer = dram._writeback_defer
    fcfs = dram._fcfs
    faw_window = dram._faw_window

    banks = dram.banks
    total_banks = len(banks)
    auto_precharge = banks[0].auto_precharge
    b_open = [bank.open_row for bank in banks]
    b_act = [bank.activate_time for bank in banks]
    b_next_cas = [bank.next_cas_time for bank in banks]
    b_ready = [bank.ready_time for bank in banks]
    b_hits = [bank.row_hits for bank in banks]
    b_misses = [bank.row_misses for bank in banks]
    b_conflicts = [bank.row_conflicts for bank in banks]
    b_activates = [bank.activates for bank in banks]
    # Channel row/activate stats are derived at sync from the bank sums, so
    # the per-request branches only touch the flat lists.
    bh0 = sum(b_hits)
    bm0 = sum(b_misses)
    bc0 = sum(b_conflicts)
    ba0 = sum(b_activates)

    stats = dram.stats
    s_refreshes = stats.refreshes
    pf_by_source = stats.prefetch_reads_by_source
    rd_append = rd_lats.append
    pf_append = pf_lats.append

    bus_free = dram._bus_free_time
    last_write_end = dram._last_write_end
    recent = dram._recent_activates        # deque, mutated in place
    last_act = dram._last_activate_time
    next_refresh = dram._next_refresh
    d_last_time = dram._last_time
    last_cas = dram._last_cas_time
    outstanding = dram._outstanding        # ascending deque, in place
    queue_stalls = dram.stats_queue_stalls

    def service(block_addr, arrival_time, kind, source):
        nonlocal bus_free, last_write_end, last_act, next_refresh
        nonlocal d_last_time, last_cas, queue_stalls, s_refreshes

        now = arrival_time
        if now > d_last_time:
            d_last_time = now
        if refresh_enabled and now >= next_refresh:
            while now >= next_refresh:
                refresh_end = next_refresh + tRFC
                for index in range(total_banks):
                    if refresh_end > b_ready[index]:
                        b_ready[index] = refresh_end
                    b_open[index] = None
                s_refreshes += 1
                next_refresh += tREFI

        while outstanding and outstanding[0] <= now:
            outstanding.popleft()
        if len(outstanding) >= queue_depth:
            now = outstanding.popleft()
            queue_stalls += 1

        remainder = block_addr >> column_bits
        bank_index = remainder & bank_mask
        remainder >>= bank_bits
        if rank_bits:
            row = remainder >> rank_bits
            bank_index += (remainder & rank_mask) * num_banks
        else:
            row = remainder

        is_write = kind == _WRITEBACK
        earliest = now
        if kind == _PREFETCH:
            earliest += prefetch_defer
        elif is_write:
            earliest += writeback_defer
        if not is_write:
            turnaround = last_write_end + tWTR
            if turnaround > earliest:
                earliest = turnaround
        if fcfs and last_cas > earliest:
            earliest = last_cas

        # Bank.cas_time, inlined over the flat bank lists.  The rank-level
        # activate constraints (tRRD + tFAW) only matter when the request
        # activates, so they are computed inside the non-row-hit branches.
        bank_ready = b_ready[bank_index]
        start = earliest if earliest > bank_ready else bank_ready
        open_row = b_open[bank_index]
        if open_row == row:
            next_cas = b_next_cas[bank_index]
            cas = start if start > next_cas else next_cas
            b_hits[bank_index] += 1
        else:
            act_allowed = last_act + tRRD
            if act_allowed < earliest:
                act_allowed = earliest
            if len(recent) == faw_window:
                faw_bound = recent[0] + tFAW
                if faw_bound > act_allowed:
                    act_allowed = faw_bound
            if open_row is None:
                act_time = start if start > act_allowed else act_allowed
                b_misses[bank_index] += 1
            else:
                precharge = b_act[bank_index] + tRAS
                if start > precharge:
                    precharge = start
                act_time = precharge + tRP
                if act_allowed > act_time:
                    act_time = act_allowed
                b_conflicts[bank_index] += 1
            cas = act_time + tRCD
            b_open[bank_index] = row
            b_act[bank_index] = act_time
            b_activates[bank_index] += 1
            last_act = act_time
            recent.append(act_time)
        b_next_cas[bank_index] = cas + tCCD
        if cas > bank_ready:
            bank_ready = cas
        if auto_precharge:
            b_open[bank_index] = None
            precharged = cas + tRTP + tRP
            if precharged > bank_ready:
                bank_ready = precharged
        b_ready[bank_index] = bank_ready

        if cas > last_cas:
            last_cas = cas

        data_start = cas + (tCWL if is_write else tCL)
        if data_start < bus_free:
            data_start = bus_free
        data_end = data_start + burst
        bus_free = data_end
        if is_write:
            last_write_end = data_end + tWR
        outstanding.append(data_end)

        if kind == _READ:
            rd_append(data_end - arrival_time)
        elif kind == _PREFETCH:
            pf_append(data_end - arrival_time)
            if source:
                pf_by_source[source] = pf_by_source.get(source, 0) + 1
        else:
            wb_cell[0] += 1
        return data_end

    def sync():
        for index, bank in enumerate(banks):
            bank.open_row = b_open[index]
            bank.activate_time = b_act[index]
            bank.next_cas_time = b_next_cas[index]
            bank.ready_time = b_ready[index]
            bank.row_hits = b_hits[index]
            bank.row_misses = b_misses[index]
            bank.row_conflicts = b_conflicts[index]
            bank.activates = b_activates[index]
        stats.row_hits += sum(b_hits) - bh0
        stats.row_misses += sum(b_misses) - bm0
        stats.row_conflicts += sum(b_conflicts) - bc0
        stats.activates += sum(b_activates) - ba0
        stats.refreshes = s_refreshes
        dram._bus_free_time = bus_free
        dram._last_write_end = last_write_end
        dram._last_activate_time = last_act
        dram._next_refresh = next_refresh
        dram._last_time = d_last_time
        dram._last_cas_time = last_cas
        dram.stats_queue_stalls = queue_stalls

    return service, sync


def run_buffer_batch(sim, buffer, warmup_records: int = 0) -> bool:
    """Batch-engine body for one :meth:`ChannelSimulator.run` chunk.

    Requires ``sim.cache`` to be an :class:`ArrayCache` (the engine-mode
    resolution in :class:`ChannelSimulator` guarantees it) and ``sim.obs``
    to be detached (``run`` routes observed runs through the epoch
    slicer first, so each epoch slice lands here as its own chunk).

    Consumes every chunk and returns True (callers count batch chunks by
    it).  A passive prefetcher runs the fused demand loop unless a
    restored checkpoint left prefetched blocks resident; those chunks take
    the active loop, whose prefetcher calls are no-ops for a passive
    prefetcher.
    """
    passive = (sim.prefetcher.passive
               and not sim.cache._resident_prefetches)
    sim.set_warmup(warmup_records, records_seen_hint=sim._records_seen)
    total = len(buffer)
    if total == 0:
        sim.finish()
        return True

    block_addrs, page_col, offset_col, chan_col = kernels.decompose_chunk(
        buffer.addresses, sim.layout)
    times = buffer.arrival_times.tolist()
    read_col = (buffer.access_types == 0).tolist()  # AccessType.READ
    device_col = buffer.devices.tolist()
    chunk_last_time = int(buffer.arrival_times.max())

    # Warmup split: record k (0-based within the chunk) records metrics iff
    # records_seen + k >= warmup_until — so one cut index replaces the
    # per-record comparison of the scalar loop.
    cut = sim._warmup_until - sim._records_seen
    if cut < 0:
        cut = 0
    elif cut > total:
        cut = total

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if passive:
            _run_passive(sim, block_addrs, times, read_col, device_col,
                         cut, total)
        else:
            _run_active(sim, block_addrs, page_col, offset_col, chan_col,
                        times, read_col, device_col, cut, total)
    finally:
        if gc_was_enabled:
            gc.enable()

    sim._records_seen += total
    if chunk_last_time > sim._last_time:
        sim._last_time = chunk_last_time
    sim.finish()
    return True


def _run_passive(sim, block_addrs, times, read_col, device_col, cut, total):
    """Fused demand-only loop: inlined cache and metrics, closure DRAM.

    The dispatcher guarantees no prefetched block is resident (and the
    demand path cannot create one), so the prefetch-consumption branches
    of the cache lookup and fill are elided outright.  The Welford
    recurrences are the scalar code inlined over Python locals, so a hit
    makes no call; a miss and its dirty victim's write-back call the
    ``service`` closure of :func:`_dram_closures`, synced once at the end.
    The warmup prefix runs as its own short loop without metrics: folding
    it into the measured loop behind a per-record test cost about 10% of
    the loop's throughput.
    """
    cache = sim.cache
    cmap = cache._map
    map_get = cmap.get
    tags = cache._tags
    dirty = cache._dirty
    source = cache._source
    ready = cache._ready
    touch = cache._touch
    free_lists = cache._free
    partitions = cache._partition_ways
    set_mask = cache._set_mask
    assoc = cache.associativity
    tick = cache._tick
    tick0 = tick
    occupancy = cache._occupancy
    cstats = cache.stats

    dram = sim.dram
    burst = dram._burst_cycles
    rd_lats = []
    wb_cell = [0]
    service, dram_sync = _dram_closures(dram, rd_lats, [], wb_cell)
    n_delayed = 0

    # Metric aggregates as plain locals (absolute values, written back at
    # sync).  Constant-latency hits contribute hit_latency to the mean/M2
    # recurrences inline but defer their min/max/histogram contributions —
    # merged once at sync, where order does not matter.
    metrics = sim.metrics
    all_stats = metrics.all_latency
    a_count = all_stats.count
    a0 = a_count
    a_mean = all_stats._mean
    a_m2 = all_stats._m2
    a_min = all_stats.min
    a_max = all_stats.max
    read_stats = metrics.read_latency
    r_count = read_stats.count
    r0 = r_count
    r_mean = read_stats._mean
    r_m2 = read_stats._m2
    r_min = read_stats.min
    r_max = read_stats.max
    histogram = metrics.latency_histogram
    h_buckets = histogram._buckets                 # dict, in place
    bucket_width = histogram.bucket_width
    hit_latency = sim.config.sc_hit_latency
    hit_bucket = int(hit_latency // bucket_width)
    hb_known = hit_bucket in h_buckets
    hb_const = 0
    const_seen = False          # any constant-latency (plain-hit) sample
    const_read_seen = False     # any constant-latency *read* sample

    # Per-device read stats as parallel arrays indexed by device value.
    # Existing aggregates seed the arrays (the recurrence continues from
    # them); devices first seen this chunk are appended to dev_order so
    # the sync pass recreates the scalar dict's first-seen key order.
    device_latency = metrics.device_read_latency
    device_count = max(_DEVICE_BY_VALUE) + 1
    device_names = [_DEVICE_BY_VALUE[value].name
                    for value in range(device_count)]
    dev_n = [0] * device_count
    dev_mean = [0.0] * device_count
    dev_m2 = [0.0] * device_count
    dev_min = [None] * device_count
    dev_max = [None] * device_count
    dev_const = [False] * device_count
    dev_order = []
    for value, name in enumerate(device_names):
        seeded = device_latency.get(name)
        if seeded is not None:
            dev_n[value] = seeded.count
            dev_mean[value] = seeded._mean
            dev_m2[value] = seeded._m2
            dev_min[value] = seeded.min
            dev_max[value] = seeded.max
    # Per-device demand counters ([accesses, hits, useful, dram]): the
    # count lists live in metrics.device_demand itself, cached here by
    # device value; first-use insertion reproduces the scalar dict's
    # first-seen key order by construction.
    device_demand = metrics.device_demand
    dev_demand = [device_demand.get(name) for name in device_names]

    try:
        # Warmup segment (no metrics).
        for block_addr, is_read, device_value, now in zip(
                block_addrs[0:cut], read_col[0:cut],
                device_col[0:cut], times[0:cut]):
            way = map_get(block_addr, -1)
            if way >= 0:
                tick += 1
                touch[way] = tick
                if not is_read:
                    dirty[way] = True
                if ready[way] > now:
                    n_delayed += 1
                continue
            completion = service(block_addr, now, 0, "")
            set_index = block_addr & set_mask
            free = free_lists[set_index]
            if partitions and device_value in partitions:
                way = partition_victim(tags, touch, set_index * assoc,
                                       partitions[device_value])
                victim_tag = tags[way]
                if victim_tag is None:
                    free.remove(way)
                    occupancy += 1
            elif free:
                way = free.pop(0)
                occupancy += 1
                victim_tag = None
            else:
                base = set_index * assoc
                ages = touch[base:base + assoc]
                way = base + ages.index(min(ages))
                victim_tag = tags[way]
            if victim_tag is not None:
                del cmap[victim_tag]
                if dirty[way]:
                    service(victim_tag, now, 2, "")
            tags[way] = block_addr
            cmap[block_addr] = way
            dirty[way] = not is_read
            source[way] = None
            ready[way] = completion
            tick += 1
            touch[way] = tick

        # Post-warmup segment: the fused hot loop.
        for block_addr, is_read, device_value, now in zip(
                block_addrs[cut:total], read_col[cut:total],
                device_col[cut:total], times[cut:total]):
            way = map_get(block_addr, -1)
            if way >= 0:
                tick += 1
                touch[way] = tick
                if is_read:
                    ready_at = ready[way]
                    if ready_at <= now:
                        # Plain read hit: constant latency — the
                        # min/max/histogram/device extremes defer to the
                        # sync merge.
                        const_read_seen = True
                        if hb_known:
                            hb_const += 1
                        else:
                            h_buckets[hit_bucket] = h_buckets.get(
                                hit_bucket, 0) + 1
                            hb_known = True
                        a_count += 1
                        delta = hit_latency - a_mean
                        a_mean += delta / a_count
                        a_m2 += delta * (hit_latency - a_mean)
                        r_count += 1
                        delta = hit_latency - r_mean
                        r_mean += delta / r_count
                        r_m2 += delta * (hit_latency - r_mean)
                        dn = dev_n[device_value]
                        if not dn:
                            dev_order.append(device_value)
                        dn += 1
                        dev_n[device_value] = dn
                        dm = dev_mean[device_value]
                        delta = hit_latency - dm
                        dm += delta / dn
                        dev_mean[device_value] = dm
                        dev_m2[device_value] += delta * (hit_latency - dm)
                        dev_const[device_value] = True
                        dd = dev_demand[device_value]
                        if dd is None:
                            dd = [0, 0, 0, 0]
                            device_demand[device_names[device_value]] = dd
                            dev_demand[device_value] = dd
                        dd[0] += 1
                        dd[1] += 1
                        continue
                    # Delayed hit: still in flight — counts as a miss,
                    # latency covers the residual wait.
                    n_delayed += 1
                    latency = hit_latency + (ready_at - now)
                    dd = dev_demand[device_value]
                    if dd is None:
                        dd = [0, 0, 0, 0]
                        device_demand[device_names[device_value]] = dd
                        dev_demand[device_value] = dd
                    dd[0] += 1
                else:
                    dirty[way] = True
                    ready_at = ready[way]
                    if ready_at <= now:
                        const_seen = True
                        a_count += 1
                        delta = hit_latency - a_mean
                        a_mean += delta / a_count
                        a_m2 += delta * (hit_latency - a_mean)
                        dd = dev_demand[device_value]
                        if dd is None:
                            dd = [0, 0, 0, 0]
                            device_demand[device_names[device_value]] = dd
                            dev_demand[device_value] = dd
                        dd[0] += 1
                        dd[1] += 1
                        continue
                    n_delayed += 1
                    latency = hit_latency + (ready_at - now)
                    a_count += 1
                    delta = latency - a_mean
                    a_mean += delta / a_count
                    a_m2 += delta * (latency - a_mean)
                    if a_min is None or latency < a_min:
                        a_min = latency
                    if a_max is None or latency > a_max:
                        a_max = latency
                    dd = dev_demand[device_value]
                    if dd is None:
                        dd = [0, 0, 0, 0]
                        device_demand[device_names[device_value]] = dd
                        dev_demand[device_value] = dd
                    dd[0] += 1
                    continue
            else:
                # Demand miss → DRAM read, then the fill
                # (ArrayCache.fill inlined; no prefetched victims can
                # exist on this path).
                completion = service(block_addr, now, 0, "")
                set_index = block_addr & set_mask
                free = free_lists[set_index]
                if partitions and device_value in partitions:
                    way = partition_victim(tags, touch, set_index * assoc,
                                           partitions[device_value])
                    victim_tag = tags[way]
                    if victim_tag is None:
                        free.remove(way)
                        occupancy += 1
                elif free:
                    way = free.pop(0)
                    occupancy += 1
                    victim_tag = None
                else:
                    base = set_index * assoc
                    ages = touch[base:base + assoc]
                    way = base + ages.index(min(ages))
                    victim_tag = tags[way]
                if victim_tag is not None:
                    del cmap[victim_tag]
                    if dirty[way]:
                        service(victim_tag, now, 2, "")
                tags[way] = block_addr
                cmap[block_addr] = way
                dirty[way] = not is_read
                source[way] = None
                ready[way] = completion
                tick += 1
                touch[way] = tick
                dd = dev_demand[device_value]
                if dd is None:
                    dd = [0, 0, 0, 0]
                    device_demand[device_names[device_value]] = dd
                    dev_demand[device_value] = dd
                dd[0] += 1
                dd[3] += 1
                if not is_read:
                    # Write miss: store buffered, constant latency.
                    const_seen = True
                    a_count += 1
                    delta = hit_latency - a_mean
                    a_mean += delta / a_count
                    a_m2 += delta * (hit_latency - a_mean)
                    continue
                latency = hit_latency + (completion - now)

            # Variable-latency read (delayed hit or read miss):
            # full metric recording.
            a_count += 1
            delta = latency - a_mean
            a_mean += delta / a_count
            a_m2 += delta * (latency - a_mean)
            if a_min is None or latency < a_min:
                a_min = latency
            if a_max is None or latency > a_max:
                a_max = latency
            r_count += 1
            delta = latency - r_mean
            r_mean += delta / r_count
            r_m2 += delta * (latency - r_mean)
            if r_min is None or latency < r_min:
                r_min = latency
            if r_max is None or latency > r_max:
                r_max = latency
            bucket = int(latency // bucket_width)
            h_buckets[bucket] = h_buckets.get(bucket, 0) + 1
            dn = dev_n[device_value]
            if not dn:
                dev_order.append(device_value)
            dn += 1
            dev_n[device_value] = dn
            dm = dev_mean[device_value]
            delta = latency - dm
            dm += delta / dn
            dev_mean[device_value] = dm
            dev_m2[device_value] += delta * (latency - dm)
            dmn = dev_min[device_value]
            if dmn is None or latency < dmn:
                dev_min[device_value] = latency
            dmx = dev_max[device_value]
            if dmx is None or latency > dmx:
                dev_max[device_value] = latency
    finally:
        dram_sync()
        # Derived counters: every demand-read service is exactly one true
        # miss and one demand fill; the cache tick advanced once per hit
        # (plain or delayed) and once per fill, so the hit count falls out
        # of the tick delta.  Exact at any record boundary.
        rd_n = len(rd_lats)
        wb_n = wb_cell[0]
        dstats = dram.stats
        dstats.demand_reads += rd_n
        dstats.writebacks += wb_n
        dstats.data_bus_cycles += burst * (rd_n + wb_n)
        _welford_into(rd_lats, dstats.demand_read_latency)

        cache._tick = tick
        cache._occupancy = occupancy
        tick_delta = tick - tick0
        hits_delta = tick_delta - n_delayed - rd_n
        misses_delta = rd_n + n_delayed
        cstats.demand_hits += hits_delta
        cstats.demand_misses += misses_delta
        cstats.demand_accesses += hits_delta + misses_delta
        cstats.delayed_hits += n_delayed
        cstats.demand_fills += rd_n
        cstats.writebacks += wb_n

        # Merge the deferred constant-latency extremes (order-free).
        if const_seen or const_read_seen:
            if a_min is None or hit_latency < a_min:
                a_min = hit_latency
            if a_max is None or hit_latency > a_max:
                a_max = hit_latency
        if const_read_seen:
            if r_min is None or hit_latency < r_min:
                r_min = hit_latency
            if r_max is None or hit_latency > r_max:
                r_max = hit_latency
        if hb_const:
            h_buckets[hit_bucket] = h_buckets.get(hit_bucket, 0) + hb_const
        all_stats.count = a_count
        all_stats._mean = a_mean
        all_stats._m2 = a_m2
        all_stats.min = a_min
        all_stats.max = a_max
        read_stats.count = r_count
        read_stats._mean = r_mean
        read_stats._m2 = r_m2
        read_stats.min = r_min
        read_stats.max = r_max
        histogram.count += r_count - r0
        metrics.demand_reads += r_count - r0
        metrics.demand_writes += (a_count - a0) - (r_count - r0)

        # Device aggregates: update pre-existing entries in place (keeps
        # their dict positions), then append devices first seen this chunk
        # in occurrence order — reproducing the scalar dict's key order.
        for value, name in enumerate(device_names):
            seeded = device_latency.get(name)
            if seeded is None or dev_n[value] == seeded.count:
                continue
            seeded.count = dev_n[value]
            seeded._mean = dev_mean[value]
            seeded._m2 = dev_m2[value]
            low = dev_min[value]
            if dev_const[value] and (low is None or hit_latency < low):
                low = hit_latency
            seeded.min = low
            high = dev_max[value]
            if dev_const[value] and (high is None or hit_latency > high):
                high = hit_latency
            seeded.max = high
        for value in dev_order:
            fresh = RunningStats()
            fresh.count = dev_n[value]
            fresh._mean = dev_mean[value]
            fresh._m2 = dev_m2[value]
            low = dev_min[value]
            if dev_const[value] and (low is None or hit_latency < low):
                low = hit_latency
            fresh.min = low
            high = dev_max[value]
            if dev_const[value] and (high is None or hit_latency > high):
                high = hit_latency
            fresh.max = high
            device_latency[device_names[value]] = fresh


def _run_active(sim, block_addrs, page_col, offset_col, chan_col,
                times, read_col, device_col, cut, total):
    """Prefetcher-in-play loop: inlined cache ops, closure-based DRAM.

    Every record is observed in scalar order; a hit's ``issue`` call is
    skipped while ``hit_trigger_noop()`` holds and the skipped calls are
    applied once at chunk end.  Counters derive at sync exactly as in
    :func:`_run_passive` (prefetch fills count via the deferred prefetch
    latency list).
    """
    prefetcher = sim.prefetcher
    skip_hits = prefetcher.hit_trigger_noop()

    cache = sim.cache
    cmap = cache._map
    map_get = cmap.get
    tags = cache._tags
    dirty = cache._dirty
    prefetched = cache._prefetched
    source = cache._source
    ready = cache._ready
    touch = cache._touch
    free_lists = cache._free
    partitions = cache._partition_ways
    set_mask = cache._set_mask
    assoc = cache.associativity
    tick = cache._tick
    tick0 = tick
    occupancy = cache._occupancy
    resident_pf = cache._resident_prefetches
    cstats = cache.stats
    useful = cstats.prefetch_useful                # dicts, mutated in place
    late = cstats.prefetch_late
    unused_evicted = cstats.prefetch_unused_evicted
    n_delayed = 0

    dram = sim.dram
    burst = dram._burst_cycles
    rd_lats = []
    pf_lats = []
    wb_cell = [0]
    dram_service, dram_sync = _dram_closures(dram, rd_lats, pf_lats, wb_cell)

    # Measured latencies, in record order, folded into the metric
    # aggregates at chunk end; reads also keep their device value.
    metrics = sim.metrics
    lats = []
    lats_append = lats.append
    read_lats = []
    read_lats_append = read_lats.append
    read_devs = []
    read_devs_append = read_devs.append
    device_count = max(_DEVICE_BY_VALUE) + 1
    devices = [_DEVICE_BY_VALUE[value] for value in range(device_count)]
    device_names = [device.name for device in devices]
    # Per-device demand counters, direct-dict (see _run_passive).
    device_demand = metrics.device_demand
    dev_demand = [device_demand.get(name) for name in device_names]

    hit_latency = sim.config.sc_hit_latency
    prefetch_fill_sc = sim.config.prefetch_fill_sc
    queue_push = sim.queue.push
    queue_pop_all = sim.queue.pop_all
    notify_useful = prefetcher.notify_useful
    lineage = sim.lineage
    observe = prefetcher.observe
    issue = prefetcher.issue

    from repro.sim.engine import _FastDemandAccess
    access = _FastDemandAccess()

    segments = ((0, cut, False), (cut, total, True))
    skipped_hits = 0

    try:
        for seg_start, seg_end, record_metrics in segments:
            if seg_start == seg_end:
                continue
            for block_addr, page, block_in_segment, channel_block, is_read, \
                    device_value, now in zip(
                        block_addrs[seg_start:seg_end],
                        page_col[seg_start:seg_end],
                        offset_col[seg_start:seg_end],
                        chan_col[seg_start:seg_end],
                        read_col[seg_start:seg_end],
                        device_col[seg_start:seg_end],
                        times[seg_start:seg_end]):
                way = map_get(block_addr, -1)
                if way >= 0:
                    tick += 1
                    touch[way] = tick
                    if not is_read:
                        dirty[way] = True
                    if prefetched[way]:
                        prefetch_source = source[way]
                        prefetched[way] = False
                        resident_pf -= 1
                        useful[prefetch_source] = useful.get(
                            prefetch_source, 0) + 1
                    else:
                        prefetch_source = None
                    went_dram = False
                    ready_at = ready[way]
                    if ready_at > now:
                        hit = False
                        n_delayed += 1
                        if prefetch_source is not None:
                            late[prefetch_source] = late.get(
                                prefetch_source, 0) + 1
                        latency = hit_latency + (ready_at - now)
                    else:
                        hit = True
                        latency = hit_latency
                else:
                    hit = False
                    prefetch_source = None
                    went_dram = True
                    completion = dram_service(block_addr, now, 0, "")
                    set_index = block_addr & set_mask
                    free = free_lists[set_index]
                    if partitions and device_value in partitions:
                        way = partition_victim(tags, touch, set_index * assoc,
                                               partitions[device_value])
                        victim_tag = tags[way]
                        if victim_tag is None:
                            free.remove(way)
                            occupancy += 1
                    elif free:
                        way = free.pop(0)
                        occupancy += 1
                        victim_tag = None
                    else:
                        base = set_index * assoc
                        ages = touch[base:base + assoc]
                        way = base + ages.index(min(ages))
                        victim_tag = tags[way]
                    if victim_tag is not None:
                        del cmap[victim_tag]
                        victim_dirty = dirty[way]
                        if prefetched[way]:
                            resident_pf -= 1
                            victim_source = source[way]
                            if victim_source is not None:
                                unused_evicted[victim_source] = (
                                    unused_evicted.get(victim_source, 0) + 1)
                            prefetcher.notify_unused()
                            if lineage is not None:
                                lineage.note_evicted(victim_tag,
                                                     victim_source, now)
                        if victim_dirty:
                            dram_service(victim_tag, now, 2, "")
                    tags[way] = block_addr
                    cmap[block_addr] = way
                    dirty[way] = not is_read
                    prefetched[way] = False
                    source[way] = None
                    ready[way] = completion
                    tick += 1
                    touch[way] = tick
                    if is_read:
                        latency = hit_latency + (completion - now)
                    else:
                        latency = hit_latency

                if record_metrics:
                    dd = dev_demand[device_value]
                    if dd is None:
                        dd = [0, 0, 0, 0]
                        device_demand[device_names[device_value]] = dd
                        dev_demand[device_value] = dd
                    dd[0] += 1
                    if hit:
                        dd[1] += 1
                    if prefetch_source is not None:
                        dd[2] += 1
                    if went_dram:
                        dd[3] += 1
                    lats_append(latency)
                    if is_read:
                        read_lats_append(latency)
                        read_devs_append(device_value)

                if prefetch_source is not None:
                    notify_useful()
                    if lineage is not None:
                        lineage.note_used(block_addr, prefetch_source,
                                          not hit, now)

                access.block_addr = block_addr
                access.page = page
                access.block_in_segment = block_in_segment
                access.channel_block = channel_block
                access.time = now
                access.is_read = is_read
                access.device = devices[device_value]
                observe(access)
                if hit and skip_hits:
                    skipped_hits += 1
                    continue
                candidates = issue(
                    access, hit, hit and prefetch_source is not None)

                if candidates and queue_push(candidates):
                    # _service_prefetches, inlined over the same locals;
                    # the fills land in the triggering device's partition.
                    if not prefetch_fill_sc:
                        if lineage is None:
                            queue_pop_all()
                        else:
                            for candidate in queue_pop_all():
                                lineage.note_unfilled(candidate)
                        continue
                    for candidate in queue_pop_all():
                        candidate_block = candidate.block_addr
                        if candidate_block in cmap:
                            if lineage is not None:
                                lineage.note_skip_resident(candidate)
                            continue
                        candidate_source = candidate.source
                        completion = dram_service(candidate_block, now, 1,
                                                  candidate_source)
                        set_index = candidate_block & set_mask
                        free = free_lists[set_index]
                        if partitions and device_value in partitions:
                            way = partition_victim(
                                tags, touch, set_index * assoc,
                                partitions[device_value])
                            victim_tag = tags[way]
                            if victim_tag is None:
                                free.remove(way)
                                occupancy += 1
                        elif free:
                            way = free.pop(0)
                            occupancy += 1
                            victim_tag = None
                        else:
                            base = set_index * assoc
                            ages = touch[base:base + assoc]
                            way = base + ages.index(min(ages))
                            victim_tag = tags[way]
                        if victim_tag is not None:
                            del cmap[victim_tag]
                            victim_dirty = dirty[way]
                            if prefetched[way]:
                                resident_pf -= 1
                                victim_source = source[way]
                                if victim_source is not None:
                                    unused_evicted[victim_source] = (
                                        unused_evicted.get(victim_source, 0)
                                        + 1)
                                prefetcher.notify_unused()
                                if lineage is not None:
                                    lineage.note_evicted(victim_tag,
                                                         victim_source, now)
                            if victim_dirty:
                                dram_service(victim_tag, now, 2, "")
                        tags[way] = candidate_block
                        cmap[candidate_block] = way
                        dirty[way] = False
                        prefetched[way] = True
                        source[way] = candidate_source
                        ready[way] = completion
                        tick += 1
                        touch[way] = tick
                        resident_pf += 1
                        if lineage is not None:
                            lineage.note_fill(candidate, device_value, now)

        if skipped_hits:
            prefetcher.skip_hit_triggers(skipped_hits)
    finally:
        dram_sync()
        rd_n = len(rd_lats)
        pf_n = len(pf_lats)
        wb_n = wb_cell[0]
        dstats = dram.stats
        dstats.demand_reads += rd_n
        dstats.prefetch_reads += pf_n
        dstats.writebacks += wb_n
        dstats.data_bus_cycles += burst * (rd_n + pf_n + wb_n)
        _welford_into(rd_lats, dstats.demand_read_latency)
        _welford_into(pf_lats, dstats.prefetch_latency)

        cache._tick = tick
        cache._occupancy = occupancy
        cache._resident_prefetches = resident_pf
        tick_delta = tick - tick0
        hits_delta = tick_delta - n_delayed - rd_n - pf_n
        misses_delta = rd_n + n_delayed
        cstats.demand_hits += hits_delta
        cstats.demand_misses += misses_delta
        cstats.demand_accesses += hits_delta + misses_delta
        cstats.delayed_hits += n_delayed
        cstats.demand_fills += rd_n
        cstats.prefetch_fills += pf_n
        cstats.writebacks += wb_n
        _fold_metrics(metrics, lats, read_lats, read_devs, device_names)


def _fold_metrics(metrics, lats, read_lats, read_devs, device_names):
    """Fold one chunk's measured latencies into ``metrics``, bit-identically.

    ``lats`` holds every measured record's latency in record order,
    ``read_lats``/``read_devs`` the reads' latencies and device values.
    The Welford streams replay ``MetricSet.record``'s order through
    :func:`_welford_into`; histogram buckets and per-device aggregates are
    created in first-seen order, so the dicts keep the scalar loop's key
    order too.
    """
    _welford_into(lats, metrics.all_latency)
    _welford_into(read_lats, metrics.read_latency)
    reads = len(read_lats)
    metrics.demand_reads += reads
    metrics.demand_writes += len(lats) - reads
    if not reads:
        return
    histogram = metrics.latency_histogram
    h_buckets = histogram._buckets
    bucket_width = histogram.bucket_width
    # Counter keeps the latencies' first-seen order, hence the buckets'.
    for latency, count in Counter(read_lats).items():
        bucket = int(latency // bucket_width)
        h_buckets[bucket] = h_buckets.get(bucket, 0) + count
    histogram.count += reads
    by_device = {value: [] for value in dict.fromkeys(read_devs)}
    for latency, value in zip(read_lats, read_devs):
        by_device[value].append(latency)
    device_latency = metrics.device_read_latency
    for value, values in by_device.items():
        name = device_names[value]
        stats = device_latency.get(name)
        if stats is None:
            stats = device_latency[name] = RunningStats()
        _welford_into(values, stats)
