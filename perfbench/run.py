#!/usr/bin/env python3
"""One-command runner for the CS-AG query benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (offline) and caches the classpath under
perfbench/target/; later runs reuse it until a source file changes. The run
itself is one JVM: local Spark on half the machine's cores, logging at WARN.
Its last stdout line is the JSON result.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "target")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170

# The --add-opens set spark-submit passes on Java 17+ (as in the root build).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SPARK_HOME" not in env:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail("SPARK_HOME is not set and spark-submit is not on PATH")
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    return env


def source_stamp():
    """Hash of every file the build compiles, so edits trigger a rebuild."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(p[len(ROOT):].encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def classpath(env):
    """Build if needed; return the runtime classpath."""
    stamp = source_stamp()
    cp_file = os.path.join(OUT, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as f:
            cached_stamp, cp = f.read().split("\n", 1)
        if cached_stamp == stamp:
            return cp.strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=HERE, env=env, capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build timed out after {BUILD_TIMEOUT_S} s")
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
        fail("build failed")
    cp = res.stdout.strip().splitlines()[-1].strip()
    if not cp or any(not os.path.exists(p) for p in cp.split(os.pathsep)):
        sys.stderr.write(res.stdout[-4000:])
        fail("build did not print a usable classpath")
    os.makedirs(OUT, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(stamp + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SRC)}; "
             "run from the root of a full checkout")
    env = build_env()
    cp = classpath(env)

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in env else "java"
    cmd = [java, "-Xmx2g",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           *[f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS],
           "-cp", cp, "perfbench.Bench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.relpath(os.path.join(OUT, "results"), ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    result = [l for l in lines if l.startswith('{"correct"')]
    for l in lines:
        if l not in result:
            print(l)
    if proc.returncode != 0 or not result:
        fail(f"benchmark exited with code {proc.returncode} and no result")
    print(result[-1], flush=True)


if __name__ == "__main__":
    main()
