"""Driving the `ghd` binary from outside: one-shot processes and a
`ghd serve` daemon on loopback TCP."""

import json
import os
import socket
import subprocess
import time


class BenchError(Exception):
    """The benchmark cannot go on (wrong answer, dead daemon, bad build)."""


def cpu_clock(pid):
    """The clock id of process `pid`'s CPU time, all threads (Linux encodes
    it as `~pid << 3 | CPUCLOCK_SCHED`). The kernel does not count time a
    virtual CPU spends descheduled by its host against it."""
    return ((~pid) << 3) | 2


def run_process(argv, stderr_path):
    """Runs one process to completion. Returns (wall_s, exit_code, stdout,
    peak_rss_kb, cpu_s); stderr goes to `stderr_path`."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out.decode(), usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Conn:
    """One client connection speaking the newline-delimited JSON protocol."""

    def __init__(self, port, timeout=60.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def roundtrip(self, line):
        """Sends one request line; returns (seconds, parsed response)."""
        data = line.encode() + b"\n"
        t0 = time.perf_counter()
        self.sock.sendall(data)
        reply = self.rfile.readline()
        dt = time.perf_counter() - t0
        if not reply:
            raise BenchError("daemon closed the connection")
        return dt, json.loads(reply)

    def close(self):
        self.rfile.close()
        self.sock.close()


def solve_line(req_id, cmd, text, args):
    return json.dumps({"id": req_id, "cmd": cmd, "instance": text, "args": args})


def one_shot(port, line):
    """A request over its own connection, the `ghd submit` shape: the
    time includes connect and close."""
    t0 = time.perf_counter()
    c = Conn(port)
    try:
        _, resp = c.roundtrip(line)
    finally:
        c.close()
    return time.perf_counter() - t0, resp


class Calibrator:
    """`perfprobe calibrate`: runs the fixed reference work on request and
    times it in CPU seconds of its own process."""

    def __init__(self, probe):
        self.proc = subprocess.Popen([probe, "calibrate"], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.clock = cpu_clock(self.proc.pid)
        self.timings = []

    def reference(self):
        t0 = time.clock_gettime(self.clock)
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        if not self.proc.stdout.readline():
            raise BenchError("perfprobe calibrate stopped")
        self.timings.append(time.clock_gettime(self.clock) - t0)
        return self.timings[-1]

    def close(self):
        """Ends the process (EOF on its stdin) and waits for it."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Daemon:
    """A `ghd serve` process with `--workers 1` on a loopback port.

    Its access log (stderr) and summary (stdout) go to files: the daemon
    writes a line per request, and an undrained pipe would block it.
    """

    def __init__(self, ghd, workdir, name, flags=()):
        self.port = free_port()
        self.name = name
        self.out_path = os.path.join(workdir, name + ".stdout")
        self.err_path = os.path.join(workdir, name + ".stderr")
        argv = [ghd, "serve", "127.0.0.1:%d" % self.port, "--workers", "1", *flags]
        self._out = open(self.out_path, "wb")
        self._err = open(self.err_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self._out, stderr=self._err)
        self.clock = cpu_clock(self.proc.pid)
        self.conn = None
        self.peak_rss_kb = None

    def wait_ready(self, timeout=60.0):
        """Connects and pings; returns seconds from spawn to the answer.

        The daemon binds before it replays its cache log, so the first
        connect succeeds early and the ping is answered once the daemon
        serves."""
        deadline = self.t0 + timeout
        while True:
            try:
                self.conn = Conn(self.port, timeout=timeout)
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise BenchError("%s: daemon did not come up (see %s)" % (self.name, self.err_path))
                time.sleep(0.0005)
        _, resp = self.conn.roundtrip('{"cmd": "ping"}')
        ready = time.perf_counter() - self.t0
        if not resp.get("ok"):
            raise BenchError("%s: ping failed: %r" % (self.name, resp))
        return ready

    def cpu_s(self):
        """CPU seconds the daemon has used so far, all threads."""
        return time.clock_gettime(self.clock)

    def shutdown(self):
        """Drains the daemon and checks that it reports a clean drain."""
        if self.conn is None:
            self.conn = Conn(self.port)
        _, resp = self.conn.roundtrip('{"cmd": "shutdown"}')
        self.conn.close()
        self.conn = None
        if not resp.get("ok"):
            raise BenchError("%s: shutdown refused: %r" % (self.name, resp))
        self._reap(60.0)
        with open(self.out_path) as f:
            summary = f.read()
        if "drained clean" not in summary:
            raise BenchError("%s: daemon did not drain clean: %r" % (self.name, summary))
        return summary.strip()

    def kill(self):
        """Stops the daemon without a drain (error paths only)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                self._reap(30.0)
            except BenchError:
                pass  # killed on purpose

    def _reap(self, timeout):
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = usage.ru_maxrss
        self._out.close()
        self._err.close()
        if self.proc.returncode != 0:
            raise BenchError("%s: daemon exited with %d" % (self.name, self.proc.returncode))
