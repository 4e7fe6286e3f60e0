package perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** The CS-AG query benchmark: one closed-loop client, one request in flight.
  *
  * A request is one method answering one query q, timed end to end with its
  * pre-stage. A run sets up the workload, sends its warm-up queries, then
  * sends whole queries (each to every method of the workload, in order) until
  * `--seconds` have passed, and checks every answer. Usage (normally through
  * run.py):
  *
  * {{{
  * Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * The last stdout line is a JSON object with `correct`, `attempted`,
  * `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
  * per-layer metrics with `--trace 1`.
  */
object Bench {

  final case class Options(workload: Workload, seed: Long, seconds: Int, trace: Boolean, out: Path)

  /** One timed request and the program's answer, or why it has none. */
  final case class Request(
      id: Int, method: String, q: Long, startMs: Long, endMs: Long, ms: Double,
      answer: Either[String, Answer],
  ) {
    def window: Intervals.Span = Intervals.Span(startMs.toDouble, endMs.toDouble)
  }

  final case class Metric(name: String, value: Double, unit: String) {
    def line: String = s"$name = ${if (value.isNaN) "n/a" else value.toString} $unit"
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args) match {
      case Right(o) => o
      case Left(err) =>
        Console.err.println(s"perfbench: $err")
        Console.err.println("usage: Bench --workload <" + Workloads.all.map(_.name).mkString("|") +
          "> --seed <n> --seconds <s> --trace <0|1> --out <dir>")
        sys.exit(2)
    }
    val spark = session(opts.out)
    try run(spark, opts) finally spark.stop()
  }

  private def parse(args: Array[String]): Either[String, Options] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    for {
      name <- kv.get("workload").toRight("--workload is required")
      w <- Workloads.all.find(_.name == name).toRight(s"unknown workload '$name'")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight("--seed <integer> is required")
      secs <- kv.get("seconds").flatMap(_.toIntOption).filter(_ > 0).toRight("--seconds <positive integer> is required")
      trace <- kv.get("trace").orElse(Some("0")).filter(Set("0", "1")).toRight("--trace must be 0 or 1")
      out <- kv.get("out").toRight("--out <dir> is required")
    } yield Options(w, seed, secs, trace == "1", Paths.get(out))
  }

  /** Local Spark on half the machine's cores, logging at WARN, with its
    * scratch space under the benchmark's output directory. A request is
    * mostly driver-side planning and scheduling of small jobs: with a task
    * thread on every core, the driver thread, the JIT compiler and GC compete
    * with the tasks, and requests ran about 30% slower on a 4-core machine.
    */
  private def session(out: Path): SparkSession = {
    val cores = math.max(1, Runtime.getRuntime.availableProcessors() / 2)
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Send `q` to every method of `w`, appending one request per method. */
  private def sendQuery(w: Workload, p: Prepared, q: Long, into: mutable.Buffer[Request]): Unit =
    w.methods.foreach { m =>
      val startMs = System.currentTimeMillis()
      val t = System.nanoTime()
      val a = Try(Workloads.answer(w, p.prep, m, q)) match {
        case Success(ans) => Right(ans)
        case Failure(e)   => Left(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")
      }
      into += Request(into.size, m, q, startMs, System.currentTimeMillis(), (System.nanoTime() - t) / 1e6, a)
    }

  private def run(spark: SparkSession, o: Options): Unit = {
    val w = o.workload
    val listener = new JobListener(detailed = o.trace)
    spark.sparkContext.addSparkListener(listener)

    // ---- set-up: data, then warm-up queries from the end of the seeded order
    val setupStartMs = System.currentTimeMillis()
    val prepared = Workloads.prepare(spark, w, o.seed)
    val timedQs = prepared.queries.dropRight(w.warmupQueries)
    val (_, warmupMs) = repro.eval.Harness.timeMs {
      val sink = mutable.ArrayBuffer.empty[Request]
      prepared.queries.takeRight(w.warmupQueries).foreach(sendQuery(w, prepared, _, sink))
    }
    val timedStartMs = System.currentTimeMillis()
    val setupS = (timedStartMs - setupStartMs) / 1000.0

    // ---- timed phase: whole queries until the deadline ---------------------
    val t0 = System.nanoTime()
    val deadline = t0 + o.seconds * 1000000000L
    val requests = mutable.ArrayBuffer.empty[Request]
    var queries = 0
    while (System.nanoTime() < deadline) {
      val first = requests.size
      sendQuery(w, prepared, timedQs(queries % timedQs.size), requests)
      requests.drop(first).foreach { r =>
        Console.err.println(f"request ${r.id}%3d ${r.method}%-12s q=${r.q}%-6d ${r.ms}%9.1f ms")
      }
      queries += 1
    }
    val wallS = (System.nanoTime() - t0) / 1e9
    val timedEndMs = System.currentTimeMillis()
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    val heapMb = (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
    listener.drain(spark.sparkContext)

    // ---- checks, after timing so they cost no request time ------------------
    val rs = requests.toSeq
    val problems = checkAll(w, prepared, rs)
    problems.foreach { case (r, ps) =>
      Console.err.println(s"FAILED request ${r.id} ${r.method} q=${r.q}: ${ps.mkString("; ")}")
    }
    val ms = rs.map(_.ms)
    val answers = rs.flatMap(r => r.answer.toOption.map(r -> _))
    val e2e = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("request_ms_p50", median(ms), "ms"),
      Metric("request_ms_tail", ms.max, "ms"),
      Metric("requests_per_s", rs.size / wallS, "1/s"),
      Metric("spark_jobs_per_request",
        listener.jobsBetween(timedStartMs, timedEndMs).size.toDouble / rs.size, "count"),
      Metric("heap_used_mb", heapMb, "MB"),
    )
    val quality = Seq(
      Metric("failed_pct", 100.0 * problems.size / rs.size, "%"),
      Metric("delta_mean", mean(answers.collect { case (r, a) if !problems.contains(r) => a.delta }), "1"),
      Metric("rel_error_mean", relErrorMean(rs), "1"),
      Metric("converged_pct", pct(answers.flatMap(_._2.sea).map(_.converged)), "%"),
      Metric("capped_pct", pct(answers.flatMap(_._2.capped)), "%"),
    )
    println(f"workload ${w.name} seed ${o.seed}: ${rs.size} requests ($queries queries) in $wallS%.1f s; " +
      "request_ms_tail is the slowest request of the run")
    (e2e ++ quality).foreach(m => println(m.line))

    val reported =
      if (!o.trace) {
        Files.createDirectories(o.out)
        Files.writeString(untracedFile(o), resultJson(problems.isEmpty, rs.size, problems.size, e2e))
        e2e
      } else {
        val spansFile = o.out.resolve(s"${w.name}-seed${o.seed}.spans.jsonl")
        Trace.writeSpans(spansFile, listener, rs, setupStartMs, timedStartMs)
        println(s"spans written to $spansFile")
        Trace.printSelfTimes(listener, rs)
        printOverhead(o, median(ms))
        val layers = Trace.perLayer(listener, prepared, rs, setupStartMs, warmupMs, timedStartMs) ++
          quality.map(m => m.copy(value = if (m.value.isNaN) 0.0 else m.value))
        layers.foreach(m => println(m.line))
        layers
      }
    println(resultJson(problems.isEmpty, rs.size, problems.size, reported))
  }

  /** Problems per request: it threw, returned nothing for an answerable q, or
    * failed a check. Uncapped exact answers are the reference for the other
    * methods on the same q.
    */
  private def checkAll(w: Workload, p: Prepared, rs: Seq[Request]): Map[Request, Seq[String]] = {
    val reference: Map[Long, Double] = rs.flatMap { r =>
      r.answer.toOption.collect {
        case a if r.method.startsWith("Exact") && a.capped.contains(false) && a.community.nonEmpty =>
          r.q -> Checker.delta(p.mirror, a.community, r.q, p.prep.gamma)
      }
    }.toMap
    rs.map { r =>
      r -> (r.answer match {
        case Left(err) => Seq(err)
        case Right(a) =>
          val ref = if (r.method.startsWith("Exact")) None else reference.get(r.q)
          Checker.check(p.mirror, r.q, a.community, w.cohesion, p.prep.gamma, a.delta, ref)
      })
    }.filter(_._2.nonEmpty).toMap
  }

  /** Mean `|δ(SEA-Truss) − δ(Exact-Truss)| / δ(Exact-Truss)` over the queries
    * where Exact-Truss finished uncapped.
    */
  private def relErrorMean(rs: Seq[Request]): Double = {
    def deltas(method: String): Map[Long, Double] = rs.filter(_.method == method).flatMap { r =>
      r.answer.toOption.filter(a => a.community.nonEmpty && !a.capped.contains(true)).map(r.q -> _.delta)
    }.toMap
    val exact = deltas("Exact-Truss")
    mean(deltas("SEA-Truss").collect {
      case (q, d) if exact.get(q).exists(_ > 0) => math.abs(d - exact(q)) / exact(q)
    }.toSeq)
  }

  private def untracedFile(o: Options): Path =
    o.out.resolve(s"${o.workload.name}-seed${o.seed}.trace0.json")

  /** The traced run's p50 against the untraced run of the same workload and
    * seed, when that run's result is in the output directory.
    */
  private def printOverhead(o: Options, tracedP50: Double): Unit = {
    val untraced = Try(Files.readString(untracedFile(o))).toOption.flatMap { s =>
      """"request_ms_p50": \{"value": ([0-9.eE+-]+)""".r.findFirstMatchIn(s).map(_.group(1).toDouble)
    }
    untraced match {
      case Some(u) =>
        println(f"tracing overhead: request_ms_p50 $tracedP50%.1f ms traced vs $u%.1f ms untraced " +
          f"(${100 * (tracedP50 - u) / u}%+.1f%%)")
      case None =>
        println("tracing overhead: run the same workload and seed with --trace 0 first to compare")
    }
  }

  def resultJson(correct: Boolean, attempted: Int, failed: Int, ms: Seq[Metric]): String = {
    def num(x: Double) = if (x.isNaN || x.isInfinite) "null" else x.toString
    val body = ms.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }

  /** Median (mean of the middle two for an even count); NaN for no samples. */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      (s((s.size - 1) / 2) + s(s.size / 2)) / 2
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  private def pct(flags: Seq[Boolean]): Double =
    if (flags.isEmpty) Double.NaN else 100.0 * flags.count(identity) / flags.size
}
