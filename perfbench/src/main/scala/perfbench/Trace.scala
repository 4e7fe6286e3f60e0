package perfbench

import java.nio.file.{Files, Path}
import perfbench.Bench.{Metric, Request, median}
import perfbench.Intervals.{coveredWithin, unionLength}

/** Per-layer numbers of a traced run, from spans the benchmark records
  * around its calls into the program plus the Spark jobs each request
  * issued, attributed by [[JobListener]] to repository files.
  *
  * Per-request layer metrics are means over the timed requests of the run;
  * a layer or method that does not run in a workload reports 0.
  */
object Trace {

  /** Repository files that issue Spark jobs during requests. */
  val RequestLayers: Seq[String] = Seq(
    "graph.PriorityBfs", "core.Sea", "core.AttrDistance",
    "graph.CoreDecomposition", "graph.TrussDecomposition", "graph.AttributedGraph",
  )

  val Methods: Seq[String] =
    Seq("SEA", "Exact", "ACQ-Core", "LocATC-Core", "VAC-Core", "Exact-Truss", "SEA-Truss")

  def perLayer(
      listener: JobListener,
      prepared: Prepared,
      rs: Seq[Request],
      setupStartMs: Long,
      warmupMs: Double,
      timedStartMs: Long,
  ): Seq[Metric] = {
    val n = rs.size.toDouble
    val jobsOf = perRequestJobs(listener, rs)
    def perReq(f: (Request, Seq[JobRecord]) => Double): Double = rs.map(r => f(r, jobsOf(r))).sum / n

    val layerMetrics = RequestLayers.flatMap { l =>
      Seq(
        Metric(s"$l.jobs", perReq((_, js) => js.count(_.layer.contains(l)).toDouble), "jobs/req"),
        Metric(s"$l.spark_ms", perReq((r, js) =>
          coveredWithin(js.filter(_.layer.contains(l)).map(_.span), r.window)), "ms/req"),
      )
    }
    val setupJobs = listener.jobsBetween(setupStartMs, timedStartMs - 1).filter(_.layer.contains("graph.MetaPath"))
    val driverMs = rs.map(r => r -> (r.ms - coveredWithin(jobsOf(r).map(_.span), r.window))).toMap

    val exactRs = rs.filter(r => r.answer.exists(_.states.isDefined))
    val states = exactRs.flatMap(_.answer.toOption.flatMap(_.states)).map(_.toDouble)
    val exactDriverS = exactRs.map(driverMs).sum / 1000
    val sea = rs.flatMap(_.answer.toOption.flatMap(_.sea))
    val rounds = sea.flatMap(_.rounds)
    def phase(p: String) = prepared.phaseMs.getOrElse(p, 0.0)
    def orZero(x: Double) = if (x.isNaN || x.isInfinite) 0.0 else x

    (layerMetrics ++ Seq(
      Metric("graph.MetaPath.jobs", setupJobs.size.toDouble, "jobs/setup"),
      Metric("graph.MetaPath.spark_ms", unionLength(setupJobs.map(_.span)), "ms/setup"),
      Metric("driver_ms", driverMs.values.sum / n, "ms/req"),
      Metric("exact.states", Bench.mean(states), "states/req"),
      Metric("exact.states_per_s", states.sum / exactDriverS, "1/s"),
      Metric("spark.tasks", perReq((_, js) => js.map(_.tasks).sum.toDouble), "tasks/req"),
      Metric("spark.task_run_ms", perReq((_, js) => js.map(_.taskRunMs).sum.toDouble), "ms/req"),
      Metric("spark.job_ms", perReq((r, js) => coveredWithin(js.map(_.span), r.window)), "ms/req"),
      Metric("spark.unattributed_jobs", listener.jobs.count(_.layer.isEmpty).toDouble, "count"),
      Metric("sea.gq_size", Bench.mean(sea.map(_.gqSize.toDouble)), "nodes"),
      Metric("sea.sample_size", Bench.mean(sea.map(_.sampleSize.toDouble)), "nodes"),
      Metric("sea.sample_share", sea.map(_.sampleSize).sum.toDouble / sea.map(_.gqSize).sum, "1"),
      Metric("sea.rounds", Bench.mean(sea.map(_.rounds.size.toDouble)), "rounds/req"),
      Metric("sea.round_ms", Bench.mean(rounds.map(_.timeMs)), "ms"),
    ) ++ Methods.map { m =>
      Metric(s"method.$m.ms_p50", median(rs.filter(_.method == m).map(_.ms)), "ms")
    } ++ Seq(
      Metric("setup.generate_ms", phase("generate"), "ms"),
      Metric("setup.project_ms", phase("project"), "ms"),
      Metric("setup.mirror_ms", phase("mirror"), "ms"),
      Metric("setup.pick_ms", phase("pick"), "ms"),
      Metric("setup.warmup_ms", warmupMs, "ms"),
    )).map(m => m.copy(value = orZero(m.value)))
  }

  /** Jobs that started inside each request's window. */
  private def perRequestJobs(listener: JobListener, rs: Seq[Request]): Map[Request, Seq[JobRecord]] =
    rs.map(r => r -> listener.jobsBetween(r.startMs, r.endMs)).toMap

  /** Spans as JSON lines: set-up, each request, and each Spark job under
    * the request (or set-up) it started in.
    */
  def writeSpans(file: Path, listener: JobListener, rs: Seq[Request],
                 setupStartMs: Long, timedStartMs: Long): Unit = {
    def line(id: String, req: String, parent: String, layer: String, s: Double, e: Double) =
      s"""{"id": "$id", "request": $req, "parent": $parent, "layer": "$layer", "start_ms": ${s.toLong}, "end_ms": ${e.toLong}}"""
    val jobsOf = perRequestJobs(listener, rs)
    val setup = line("setup", "null", "null", "setup", setupStartMs.toDouble, timedStartMs.toDouble)
    val setupJobs = listener.jobsBetween(setupStartMs, timedStartMs - 1).map { j =>
      line(s"j${j.id}", "null", "\"setup\"", j.layer.getOrElse("unattributed"), j.startMs.toDouble, j.endMs.toDouble)
    }
    val reqs = rs.flatMap { r =>
      line(s"r${r.id}", r.id.toString, "null", s"request.${r.method}", r.startMs.toDouble, r.endMs.toDouble) +:
        jobsOf(r).map { j =>
          line(s"j${j.id}", r.id.toString, s"\"r${r.id}\"", j.layer.getOrElse("unattributed"),
            j.startMs.toDouble, j.endMs.toDouble)
        }
    }
    Files.createDirectories(file.getParent)
    Files.writeString(file, ((setup +: setupJobs) ++ reqs).mkString("", "\n", "\n"))
  }

  /** Self time per layer over the timed requests: a request span's self time
    * is its duration minus the union of its jobs (driver time); a job
    * layer's is the union of its jobs' intervals.
    */
  def printSelfTimes(listener: JobListener, rs: Seq[Request]): Unit = {
    val jobsOf = perRequestJobs(listener, rs)
    val driver = rs.groupBy(r => s"request.${r.method}").map { case (l, xs) =>
      l -> xs.map(r => r.ms - coveredWithin(jobsOf(r).map(_.span), r.window)).sum
    }
    val layers = rs.flatMap(r => jobsOf(r).groupBy(_.layer.getOrElse("unattributed")).map {
      case (l, js) => l -> coveredWithin(js.map(_.span), r.window)
    }).groupMapReduce(_._1)(_._2)(_ + _)
    println("self time per layer over the timed phase:")
    (driver ++ layers).toSeq.sortBy(-_._2).foreach { case (l, ms) =>
      println(f"  $l%-28s $ms%12.1f ms")
    }
  }
}
