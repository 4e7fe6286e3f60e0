package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or to half the machine's memory (2-8 GB) when it is
  * unset. Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `body`'s result and the ids of the Spark jobs it ran, in ascending
    * order, found by job group in the status store.
    */
  protected def jobIdsIn[A](group: String)(body: => A): (A, Seq[Int]) = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    val a = try body finally sc.clearJobGroup()
    // The status store is fed asynchronously but in event order: once a
    // later job shows up there, every job of `group` has too.
    val fence = s"$group-fence"
    sc.setJobGroup(fence, fence)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    eventually(timeout(30.seconds))(assert(sc.statusTracker.getJobIdsForGroup(fence).nonEmpty))
    (a, sc.statusTracker.getJobIdsForGroup(group).toSeq.sorted)
  }

  /** `body`'s result and the number of Spark jobs it ran. */
  protected def jobsIn[A](group: String)(body: => A): (A, Int) = {
    val (a, ids) = jobIdsIn(group)(body)
    (a, ids.size)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
