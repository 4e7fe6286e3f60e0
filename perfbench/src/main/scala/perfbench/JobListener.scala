package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** One finished Spark job as the listener saw it. `layer` is the repository
  * source file that issued the job (`graph.PriorityBfs`), or None when no
  * repository frame appears in its call site.
  */
final case class JobRecord(
    id: Int,
    startMs: Long,
    endMs: Long,
    layer: Option[String],
    tasks: Int,
    taskRunMs: Long,
) {
  def span: Intervals.Span = Intervals.Span(startMs.toDouble, endMs.toDouble)
}

/** Records every Spark job with its interval. With `detailed`, it also
  * attributes each job to the repository file that issued it and sums its
  * tasks' run time.
  *
  * A stage's call site is not enough for attribution: adaptive query
  * execution submits most jobs from `CompletableFuture` threads, whose stacks
  * hold no repository frame. Those jobs carry the `spark.sql.execution.id`
  * local property of the query that caused them, and that query's
  * `SparkListenerSQLExecutionStart.details` holds the call site of the action
  * that started it. Events arrive on Spark's asynchronous listener bus, so
  * read the records only after [[drain]].
  */
final class JobListener(detailed: Boolean) extends SparkListener {
  private final class Open(val start: Long, val execId: Option[Long], val stageSite: String) {
    var tasks = 0
    var taskRunMs = 0L
  }

  private val open = mutable.Map.empty[Int, Open]
  private val stageToJob = mutable.Map.empty[Int, Int]
  private val execSites = mutable.Map.empty[Long, String]
  private val execRoots = mutable.Map.empty[Long, Long]
  private val done = mutable.ArrayBuffer.empty[(Int, Open, Long)]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val execId = Option(e.properties)
      .flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(_.toLongOption)
    val site = if (!detailed || e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).details
    open(e.jobId) = new Open(e.time, execId, site)
    if (detailed) e.stageIds.foreach(s => stageToJob(s) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (detailed) synchronized {
    for (j <- stageToJob.get(e.stageId); o <- open.get(j)) {
      o.tasks += 1
      if (e.taskMetrics != null) o.taskRunMs += e.taskMetrics.executorRunTime
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach(o => done += ((e.jobId, o, e.time)))
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart if detailed => synchronized {
      execSites(s.executionId) = s.details
      s.rootExecutionId.foreach(r => execRoots(s.executionId) = r)
    }
    case _ =>
  }

  /** Finished jobs, in completion order. */
  def jobs: Seq[JobRecord] = synchronized {
    done.toSeq.map { case (id, o, end) =>
      val layer =
        if (!detailed) None
        else {
          val viaExec = o.execId.toSeq.flatMap { x =>
            Seq(execSites.get(x), execRoots.get(x).flatMap(execSites.get)).flatten
          }
          (viaExec :+ o.stageSite).iterator.flatMap(Attribution.layerOf).nextOption()
        }
      JobRecord(id, o.start, end, layer, o.tasks, o.taskRunMs)
    }
  }

  /** Jobs that started inside `[fromMs, toMs]`. */
  def jobsBetween(fromMs: Long, toMs: Long): Seq[JobRecord] =
    jobs.filter(j => j.startMs >= fromMs && j.startMs <= toMs)

  /** Block until the listener bus has delivered every posted event. */
  def drain(sc: SparkContext): Unit = org.apache.spark.ListenerBusAccess.drain(sc)
}

/** Maps a call-site stack trace to the repository file that issued it. */
object Attribution {

  // "repro.core.Sea$.$anonfun$run$1(Sea.scala:99)": class path, then file.
  private val Frame = """((?:repro|perfbench)\.[\w.$]+)\((\w+)\.scala:\d+\)""".r

  /** Layer of the innermost frame in the program (`repro`) or the
    * benchmark (`perfbench`): the file's package under `repro` and its name,
    * e.g. `graph.PriorityBfs` or `perfbench.Checker`. None when no frame is
    * from either.
    */
  def layerOf(callSite: String): Option[String] =
    Frame.findFirstMatchIn(callSite).map { m =>
      val pkg = m.group(1).split('.').takeWhile(p => p.nonEmpty && p.head.isLower)
      ((if (pkg.head == "repro") pkg.drop(1) else pkg) :+ m.group(2)).mkString(".")
    }
}
