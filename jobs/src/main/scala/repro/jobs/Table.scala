package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint that prints one reproduced table, e.g.
  * `spark-submit --class repro.jobs.Table repro-jobs.jar V`.
  */
object Table {
  private val tables: Map[String, SparkSession => String] = Map(
    "I"   -> (Tables.tableI(_)._1),   // dataset statistics
    "II"  -> (Tables.tableII(_)._1),  // attribute cohesiveness under four metrics
    "III" -> (Tables.tableIII(_)._1), // F1 vs planted ground-truth communities
    "IV"  -> (Tables.tableIV(_)._1),  // effect of pruning strategies on Exact
    "V"   -> (Tables.tableV(_)._1),   // heterogeneous graphs, core- and truss-based methods
    "VI"  -> (Tables.tableVI(_)._1),  // size-bounded SEA case study
  )

  def main(args: Array[String]): Unit = {
    val table = args match {
      case Array(t) if tables.contains(t) => tables(t)
      case _ =>
        Console.err.println("usage: repro.jobs.Table I|II|III|IV|V|VI")
        sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"table-${args(0).toLowerCase}")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    println(table(spark))
    spark.stop()
  }
}
