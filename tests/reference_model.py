"""The executable specification: a naive keep-alive server.

The rules of docs/specification.md the slow way: plain lists and dicts,
``sorted()`` on ``(priority, last_used_s, creation ordinal)`` per
selection, a full scan per expiry and release; no index, cached plan,
fast path, or import of the pool / container / scheduler it specifies.

==========  ==========================================================
policy      whose priorities the model runs on
==========  ==========================================================
GD          own: Equation 1, ``Clock + Freq * Cost / Size``, at use
TTL, LRU    own: ``last_used_s`` (TTL expires 600 s after the finish)
SIZE, FREQ  own: ``1 / size``; the shared per-function count
HIST        own: plan recomputed from the raw IAT list on every call
LND         own: literal rent rounds over the idle set
the other   the real policy object's hooks, ``priority`` and
ten         ``should_retain`` on this server's containers (ARC's
            ``select_victims`` too): the *server* rules around them
            are specified here, ARC / SLRU / ... themselves are not
==========  ==========================================================
"""

from repro.analysis.stats import Welford
from repro.faults import FaultModel, RetryPolicy
from repro.obs.counters import counter_names

PAPER_POLICIES = ("GD", "TTL", "LRU", "HIST", "SIZE", "LND", "FREQ")
INF, MINUTE_S = float("inf"), 60.0
TTL_S = 600.0  # OpenWhisk's keep-alive (Section 1)
# HIST, Section 7.1: four hours of minute buckets, CoV <= 2, 85 % / 115 %
# margins on the 5th / 99th percentile, a generic two hours otherwise.
WINDOW_MIN, COV_MAX, MIN_SAMPLES, LND_EPSILON = 240, 2.0, 2, 1e-12
HEAD_MARGIN, TAIL_MARGIN, GENERIC_TTL_S, RELEASE_S = 0.85, 1.15, 7200.0, 60.0
EVICTION_COUNTER = {"pressure": "evictions", "expiry": "expirations", "admission": "expirations"}


class Box:  # one container; ``container_id`` is its creation ordinal
    def __init__(self, ordinal, function, now_s, pinned):
        self.container_id, self.function, self.pinned = ordinal, function, pinned
        self.created_at_s = self.last_used_s = self.busy_until_s = now_s
        self.running = self.doomed = False
        self.deadline = None  # time-based expiry, None until scheduled
        self.clock_stamp = self.priority = self.credit = 0.0

    memory_mb = property(lambda self: self.function.memory_mb)
    is_idle = property(lambda self: not self.running)


class Server:
    def __init__(
        self, functions, policy_name, capacity_mb, policy=None, tenant_mode="shared",
        quotas=None, reserved=None, fault_spec=None, horizon_s=0.0,
    ):
        assert (policy is None) == (policy_name in PAPER_POLICIES), "the real object iff not ours"
        self.functions, self.name, self.policy = functions, policy_name, policy
        self.capacity_mb = self.nominal_mb = float(capacity_mb)
        self.mode, self.limits, self.base_limits = tenant_mode, dict(quotas or {}), quotas or {}
        self.target, self.down = None, False  # a graceful shrink still pending; an outage
        self.boxes, self.evicted = [], []  # live, in creation order; ordinals evicted so far
        self.counters = dict.fromkeys(counter_names(), 0)
        self.clock, self.freq = 0.0, {}  # GD's clock; the shared Freq
        self.history, self.prewarm = {}, {}  # HIST: name -> arrivals; (at, filing no., keep until)
        self.filed = 0  # numbers prewarm requests and retries in filing order
        self.faults, self.retry, self.retries, self.events = None, None, [], []
        if fault_spec is not None and fault_spec.enabled:
            self.faults, self.retry = FaultModel(fault_spec), RetryPolicy.from_spec(fault_spec)
            self.events = self.faults.server_events([0], horizon_s)
        for name, count in (reserved or {}).items():
            for __ in range(count):  # provisioned concurrency: pinned from t=0
                self._spawn(functions[name], 0.0, pinned=True)

    # -- the pool: capacity, tenants, what a policy may ask ---------------------
    used_mb = property(lambda self: sum(b.memory_mb for b in self.boxes))
    free_mb = property(lambda self: self.capacity_mb - self.used_mb)
    slack_mb = property(lambda self: 1e-9 * self.capacity_mb)

    def idle_containers(self):  # eviction candidates: never a running or a pinned container
        return [b for b in self.boxes if b.is_idle and not b.pinned]

    def evictable_mb(self): return sum(b.memory_mb for b in self.idle_containers())
    def all_containers(self): return list(self.boxes)
    def containers_of(self, name): return [b for b in self.boxes if b.function.name == name]
    def has_containers_of(self, name): return bool(self.containers_of(name))

    def tenants(self): return sorted({b.function.tenant_id for b in self.boxes})
    def tenant_used_mb(self, tenant):
        return sum(b.memory_mb for b in self.boxes if b.function.tenant_id == tenant)

    def tenant_free_mb(self, tenant):  # a partitioned tenant's slice; no slice, no room
        return self.limits.get(tenant, 0.0) - self.tenant_used_mb(tenant)

    def over_quota(self):  # tenants strictly over their limit: evicted from first
        limit_mb = {t: self.limits.get(t, INF) + self.slack_mb for t in self.tenants()}
        return [t for t in limit_mb if self.tenant_used_mb(t) > limit_mb[t]]

    def can_admit(self, function):
        sliced = self.mode == "partitioned"
        room_mb = min(self.free_mb, self.tenant_free_mb(function.tenant_id) if sliced else INF)
        return function.memory_mb <= room_mb + self.slack_mb

    def _spawn(self, function, now_s, pinned=False):
        assert self.can_admit(function), f"no room for {function.name}"
        self.boxes.append(Box(len(self.boxes) + len(self.evicted), function, now_s, pinned))
        return self.boxes[-1]

    def schedule_expiry(self, box, deadline_s):
        if box in self.boxes and not box.pinned: box.deadline = deadline_s

    def next_expiry_s(self):  # busy containers' too; one without a deadline never expires
        return min((b.deadline for b in self.boxes if b.deadline is not None), default=INF)

    def set_capacity(self, capacity_mb):
        """Strict resize: 'refused' below use or the slices. A pending shrink stays pending."""
        sliced_mb = sum(self.limits.values()) if self.mode == "partitioned" else 0.0
        if (capacity_mb < self.used_mb - 1e-9 * max(self.capacity_mb, capacity_mb)
                or sliced_mb > capacity_mb * (1.0 + 1e-9)):
            return "refused"
        self.capacity_mb = float(capacity_mb)

    # -- the policy: seven naive priorities, or the real object's ----------------
    def _plan(self, name):
        """HIST: (keep, prewarm after, prewarmed keep, predicted gap) by a full IAT scan."""
        times = self.history[name]
        gaps = [(after - before) / MINUTE_S for before, after in zip(times, times[1:])]
        iats = [minutes for minutes in gaps if int(minutes) < WINDOW_MIN]
        stats, count, beyond = Welford(), len(iats), len(gaps) - len(iats)
        for minutes in iats:
            stats.update(minutes)
        predictable = count >= MIN_SAMPLES and beyond <= (count + beyond) / 2
        if not (predictable and stats.coefficient_of_variation <= COV_MAX):
            gap_s = stats.mean * MINUTE_S if count else GENERIC_TTL_S
            return GENERIC_TTL_S, None, GENERIC_TTL_S, gap_s
        ranked = sorted(int(minutes) for minutes in iats)  # nearest rank
        head_s = ranked[(round(0.05 * count) or 1) - 1] * MINUTE_S
        tail_s = (ranked[(round(0.99 * count) or 1) - 1] + 1) * MINUTE_S
        keep_s = TAIL_MARGIN * max(tail_s, head_s + MINUTE_S)
        if head_s > RELEASE_S:  # release now, pre-warm before the head
            return RELEASE_S, HEAD_MARGIN * head_s, keep_s, head_s
        return keep_s, None, keep_s, head_s

    def score(self, box, now_s):  # eviction priority; lower goes first
        if self.policy is not None: return self.policy.priority(box, now_s)
        function, freq = box.function, self.freq.get(box.function.name, 0)
        if self.name == "GD":  # Equation 1
            return box.clock_stamp + freq * function.init_time_s / function.memory_mb
        if self.name == "HIST":  # needed furthest away goes first
            gap_s = self._plan(function.name)[3] if function.name in self.history else GENERIC_TTL_S
            return -(box.last_used_s + gap_s - now_s)
        if self.name == "SIZE": return 1.0 / function.memory_mb
        if self.name == "FREQ": return float(freq)
        if self.name == "LND": return box.credit / function.memory_mb
        return box.last_used_s  # LRU, TTL

    def order(self, now_s):  # the one victim order: (priority, last_used_s, ordinal)
        idle = self.idle_containers()
        return sorted(idle, key=lambda b: (self.score(b, now_s), b.last_used_s, b.container_id))

    def _announce(self, function, now_s):  # an arrival, before hit or miss is known
        if self.policy is not None: return self.policy.on_invocation(function, now_s, self)
        name = function.name
        self.freq[name] = self.freq.get(name, 0) + 1
        self.history.setdefault(name, []).append(now_s)
        self.prewarm.pop(name, None)  # HIST: the anticipated arrival came

    def _started(self, box, now_s, cold):
        if self.policy is not None:
            hook = self.policy.on_cold_start if cold else self.policy.on_warm_start
            return hook(box, now_s, self)
        function = box.function
        if self.name == "GD": box.clock_stamp = self.clock
        if self.name == "LND": box.credit = max(function.init_time_s, LND_EPSILON)
        if self.name == "TTL": self.schedule_expiry(box, box.busy_until_s + TTL_S)  # finish + keep
        if self.name == "HIST":
            keep_s, after_s, until_s, __ = self._plan(function.name)
            self.schedule_expiry(box, now_s + keep_s)
            if after_s is not None:
                self.filed += 1
                self.prewarm[function.name] = (now_s + after_s, self.filed, now_s + until_s)

    def _forget(self, box, now_s, score, pressure):
        """Only a pressure eviction (or deflation) moves the clock; Freq resets with the last."""
        if self.policy is not None: return self.policy.on_evict(box, now_s, self, pressure)
        if pressure and self.name == "GD": self.clock = max(self.clock, score)
        if not self.has_containers_of(box.function.name): self.freq.pop(box.function.name, None)

    def _evict(self, box, now_s, reason):
        assert box.is_idle and not box.pinned, "never a running or pinned victim"
        score = self.score(box, now_s)
        self.boxes.remove(box)
        self.evicted.append(box.container_id)
        self._forget(box, now_s, score, reason == "pressure")
        if reason in EVICTION_COUNTER:  # a failure was counted as the fault
            self.counters[EVICTION_COUNTER[reason]] += 1

    # -- selection: the cover rule, tenant ranks, Landlord ----------------------
    @staticmethod
    def _cover(candidates, deficit_mb, slack_mb=1e-9):
        """The shortest prefix that frees the deficit; None (a drop) when all is not enough."""
        freed = 0.0
        for count, box in enumerate(candidates, 1):
            freed += box.memory_mb
            if freed >= deficit_mb - slack_mb:
                return candidates[:count]

    def _ranked(self, now_s, preferred=(), allowed=None):
        """The order under a frozen tenant rank: preferred first, the rest only if allowed."""
        boxes = [
            b for b in self.order(now_s)
            if b.function.tenant_id in preferred or allowed in (None, b.function.tenant_id)
        ]
        return sorted(boxes, key=lambda b: b.function.tenant_id not in preferred)

    def _landlord(self, deficit_mb):
        """Charge all idle the smallest credit density until zero-credit ones (LRU first) cover."""
        remaining, victims, freed = self.idle_containers(), [], 0.0
        while freed < deficit_mb - 1e-9 and remaining:
            rent = min(b.credit / b.memory_mb for b in remaining)
            for box in remaining if rent > 0.0 else ():
                box.credit = max(0.0, box.credit - rent * box.memory_mb)
            broke = [b for b in remaining if b.credit <= LND_EPSILON]
            for box in sorted(broke, key=lambda b: (b.last_used_s, b.container_id)):
                if freed < deficit_mb - 1e-9:
                    box.credit = 0.0
                    victims.append(box)
                    freed += box.memory_mb
                    remaining.remove(box)
        return victims

    def _make_room(self, function, now_s):
        """Evict for a cold start of ``function``; False: it drops."""
        needed, tenant = function.memory_mb, function.tenant_id
        deficit, preferred, allowed = needed - self.free_mb, (), None
        if self.mode == "partitioned":  # own containers only; slice room is not pool room
            deficit, allowed = max(deficit, needed - self.tenant_free_mb(tenant)), tenant
        elif self.mode == "quota" and deficit > 1e-9:
            preferred = self.over_quota()
            if self.tenant_used_mb(tenant) + needed > self.limits.get(tenant, INF) + self.slack_mb:
                allowed = tenant  # would land over quota: feeds on itself
        if deficit <= 1e-9: return True
        if allowed is None and self.evictable_mb() < deficit - 1e-9: return False
        if self.mode == "shared" and self.name == "LND":
            victims = self._landlord(deficit)
        elif self.mode == "shared" and self.name == "ARC":
            victims = self.policy.select_victims(self, needed, now_s)
        else:
            victims = self._cover(self._ranked(now_s, preferred, allowed), deficit)
        for box in victims or ():
            self._evict(box, now_s, "pressure")
        return victims is not None

    # -- graceful deflation (docs/robustness.md) ---------------------------------
    def set_harvest_capacity(self, now_s, frac):
        target, old = frac * self.nominal_mb, self.capacity_mb
        total = sum(self.base_limits.values())
        if self.mode == "partitioned":  # slices shrink with the server, never above configured
            cut = target / total if total > 0.0 and total > target * (1.0 + 1e-9) else None
            self.limits = {t: m if cut is None else m * cut for t, m in self.base_limits.items()}
        self.target = target
        self._settle(now_s)
        if abs(target - old) > 1e-9 * max(old, target):
            self.counters["capacity_shrinks" if target < old else "capacity_grows"] += 1

    def _settle(self, now_s):
        """Evict a prefix of the order toward the target; defer what busy containers hold."""
        target, victims, excess = self.target, [], {}
        slack = 1e-9 * max(self.capacity_mb, target)
        if self.mode == "partitioned":  # every tenant back inside its slice
            excess = {t: -self.tenant_free_mb(t) for t in self.tenants()}
            for box in self.order(now_s):
                if excess[box.function.tenant_id] > slack:
                    victims.append(box)
                    excess[box.function.tenant_id] -= box.memory_mb
        else:  # never more than the idle set holds: the rest is the deferral
            deficit = min(self.used_mb - target, self.evictable_mb())
            if deficit > slack:
                victims = self._cover(self._ranked(now_s, self.over_quota()), deficit, slack) or []
        scores = [self.score(box, now_s) for box in victims]
        self.boxes = [b for b in self.boxes if b not in victims]
        self.evicted += [b.container_id for b in victims]
        if self.used_mb - target > slack:  # clamp: nothing new fits meanwhile
            self.capacity_mb = self.used_mb
        else:  # lands; pending still while a busy container keeps a tenant over its slice
            self.capacity_mb = target
            self.target = target if any(mb > slack for mb in excess.values()) else None
        for box, score in zip(victims, scores):
            self._forget(box, now_s, score, pressure=True)
            self.counters["deflations"] += 1

    # -- time: release, expiry, prewarm -------------------------------------------
    def _release(self, now_s):
        due = [b for b in self.boxes if b.running and b.busy_until_s <= now_s]
        for box in sorted(due, key=lambda b: (b.busy_until_s, b.container_id)):
            done_s = box.busy_until_s
            box.running, box.last_used_s = False, max(box.last_used_s, done_s)
            gate = None if box.pinned else self.policy  # a doorkeeper may refuse to keep it warm
            if box.doomed:  # its invocation crashed or its server died
                self._evict(box, done_s, "failure")
            elif gate is not None and not gate.should_retain(box, done_s, self):
                self._evict(box, done_s, "admission")
        if self.target is not None:  # a deferred shrink resumes as they idle
            self._settle(now_s)

    def housekeeping(self, now_s):
        self._release(now_s)
        if self.policy is not None:
            expired = [box for box, __ in self.policy.expired_containers(self, now_s)]
        else:  # only TTL and HIST expire; the others conserve resources
            timed = self.idle_containers() if self.name in ("TTL", "HIST") else []
            timed = [b for b in timed if b.deadline is not None and b.deadline <= now_s]
            expired = sorted(timed, key=lambda b: (b.deadline, b.container_id))
        for box in expired:
            self._evict(box, now_s, "expiry")
        # HIST prewarms in (time, filing) order: never evicting, not beside an idle container
        due = sorted((req, name) for name, req in self.prewarm.items() if req[0] <= now_s)
        for (at_s, __, until_s), name in due:
            del self.prewarm[name]
            function = self.functions[name]
            if not any(b.is_idle for b in self.containers_of(name)) and self.can_admit(function):
                self.schedule_expiry(self._spawn(function, at_s), until_s)
                self.counters["prewarms"] += 1

    # -- an arrival ------------------------------------------------------------------
    def admit(self, function, now_s, attempt=0):
        """'warm', 'cold', 'dropped' (never counted cold); with faults 'retried' / 'shed'."""
        if self.faults is not None and attempt == 0: self._advance_faults(now_s)
        self.housekeeping(now_s)
        self._announce(function, now_s)
        if self.down:
            return self._failed(function, now_s, attempt, retry=self.faults is not None)
        name = function.name
        fault = self.faults.invocation_fault(name, now_s, attempt) if self.faults else None
        idle = [b for b in self.containers_of(name) if b.is_idle]
        if cold := not idle:
            if self.faults is not None and self.faults.spawn_fails(name, now_s, attempt):
                self.counters["faults_injected"] += 1  # before any eviction
                return self._failed(function, now_s, attempt)
            if not self._make_room(function, now_s):
                if self.faults is not None:
                    return self._failed(function, now_s, attempt)
                self.counters["dropped"] += 1
                return "dropped"
            box, duration_s = self._spawn(function, now_s), function.cold_time_s
        else:  # the least recently used idle one, oldest on a tie; a prewarm covered the init
            box = min(idle, key=lambda b: (b.last_used_s, b.container_id))
            duration_s = function.warm_time_s
        box.running, box.last_used_s, box.busy_until_s = True, now_s, now_s + duration_s
        self._started(box, now_s, cold)
        if fault is not None:  # it ran, then failed: memory held, not served
            box.doomed = box.doomed or (fault == "crash" and not box.pinned)
            self.counters["faults_injected"] += 1
            return self._failed(function, now_s, attempt)
        self.counters["cold_starts" if cold else "warm_starts"] += 1
        return "cold" if cold else "warm"

    # -- faults: retry or shed, outages, harvest events -----------------------------
    def _failed(self, function, now_s, attempt, retry=True):
        """Retried after a backoff; shed when the queue is full or the policy declines."""
        delay_s = None
        if retry and len(self.retries) < self.faults.spec.max_pending_retries:
            delay_s = self.retry.next_delay(function.name, attempt + 1, now_s)
        if delay_s is not None:
            self.retries.append((now_s + delay_s, self.filed, function.name, attempt + 1))
            self.filed += 1
        self.counters["sheds" if delay_s is None else "retries"] += 1
        return "shed" if delay_s is None else "retried"

    def _advance_faults(self, now_s):
        """Server events and due retries up to now, in time order; events first on a tie."""
        while True:
            retry = min(self.retries, default=(INF,))
            if self.events and self.events[0][0] <= min(retry[0], now_s):
                at_s, __, kind, value = self.events.pop(0)
                if kind in ("down", "evict"): self.fail_server(at_s)
                if kind in ("up", "restore"): self.recover_server(at_s)
                if kind in ("capacity", "restore"): self.set_harvest_capacity(at_s, value)
                if kind == "notice": self.notice_eviction(at_s)
            elif retry[0] <= now_s:
                self.retries.remove(retry)
                self.admit(self.functions[retry[2]], retry[0], retry[3])
            else:
                return

    def finish(self):  # past the last arrival every pending retry gets its outcome
        while self.retries:
            self._advance_faults(min(self.retries)[0])

    def fail_server(self, now_s):
        """The warm pool is lost, running invocations doomed, pinned survive; idempotent."""
        if self.down: return
        self.down = True
        self.counters["server_downs"] += 1
        self._release(now_s)
        for box in self.idle_containers():
            self._evict(box, now_s, "failure")
        for box in self.boxes:
            box.doomed = box.doomed or (box.running and not box.pinned)

    def recover_server(self, now_s): self.down = False
    def notice_eviction(self, now_s): self.counters["eviction_notices"] += 1
