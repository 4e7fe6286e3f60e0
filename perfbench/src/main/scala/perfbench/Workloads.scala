package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.BenchRunner
import repro.bench.BenchRunner.Params
import repro.core.{ExactCSAG, Sea}
import repro.eval.Harness
import repro.graph.MetaPath
import repro.synthgraph.Datasets

/** A method's answer to one query, with what the method reports about it. */
final case class Answer(
    community: Set[Long],
    delta: Double,
    capped: Option[Boolean] = None,
    states: Option[Long] = None,
    sea: Option[Sea.Result] = None,
)

/** One benchmark workload: a dataset, the method parameters the paper's
  * table uses for it, the methods each query is sent to, in order, and how
  * many whole queries warm the JVM and Spark up before timing starts.
  */
final case class Workload(
    name: String,
    dataset: String,
    hetero: Boolean,
    params: Params,
    methods: Seq[String],
    warmupQueries: Int,
    cohesion: Cohesion,
)

/** A workload's inputs after set-up. `queries` is the seeded query order. */
final case class Prepared(
    prep: BenchRunner.Prepared,
    mirror: Mirror,
    queries: IndexedSeq[Long],
    phaseMs: Map[String, Double],
)

object Workloads {

  val all: Seq[Workload] = Seq(
    Workload("sea-core-twitch", "twitch-lite", hetero = false, Params(),
      Seq("SEA"), warmupQueries = 2, KCore(Params().k)),
    Workload("exact-core-facebook", "facebook-lite", hetero = false, Params(),
      Seq("Exact", "ACQ-Core", "LocATC-Core", "VAC-Core"), warmupQueries = 1, KCore(Params().k)),
    // Table V's parameters. Exact-Truss runs first so that SEA-Truss on the
    // same q is checked against it.
    Workload("truss-hetero-imdb", "imdb-lite", hetero = true,
      Params(k = 5, exactCap = 200_000L), Seq("Exact-Truss", "SEA-Truss"), warmupQueries = 1, KTruss(5)),
  )

  /** Generate the dataset, project it (heterogeneous graphs), collect the
    * program's whole-graph mirror and the checker's own copy, and order the
    * answerable queries by `seed`. Returns the time of each phase.
    */
  def prepare(spark: SparkSession, w: Workload, seed: Long): Prepared = {
    val phase = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    def timed[A](name: String)(body: => A): A = {
      val (a, ms) = Harness.timeMs(body)
      phase(name) = ms
      a
    }
    val gen = timed("generate") {
      if (w.hetero) Datasets.hetero(spark, w.dataset) else Datasets.homo(spark, w.dataset)
    }
    val g = if (!w.hetero) gen.graph else timed("project") {
      val proj = MetaPath.project(gen.graph, Datasets.heteroSpecs(w.dataset).metaPath).cached()
      proj.edges.count() // materialise the cached projection here, not in the first request
      proj
    }
    val (lg, mirror) = timed("mirror")((Harness.collectWhole(g), Mirror.collect(g)))
    val queries = timed("pick") {
      val rnd = new scala.util.Random(seed)
      rnd.shuffle(Checker.answerable(mirror, w.cohesion).toIndexedSeq.sorted)
    }
    val prep = BenchRunner.Prepared(w.dataset, g, lg, gen.membership,
      Datasets.gammaFor(w.dataset), gen.graph, gen.circles)
    Prepared(prep, mirror, queries, phase.toMap)
  }

  /** Send `q` to `method` through the program's public entry point. */
  def answer(w: Workload, prep: BenchRunner.Prepared, method: String, q: Long): Answer = {
    val p = w.params
    method match {
      case "SEA" | "SEA-Truss" =>
        val r = Sea.run(prep.g, q, BenchRunner.seaConfig(p, prep.gamma, truss = method == "SEA-Truss"))
        Answer(r.community, r.deltaStar, sea = Some(r))
      case "Exact" =>
        val r = ExactCSAG.search(prep.g, q, p.k, prep.gamma, ExactCSAG.Pruning.All, p.exactCap)
        Answer(r.community, r.delta, capped = Some(r.capped), states = Some(r.states))
      case m =>
        val r = BenchRunner.evalQuery(prep, q, p, Seq(m)).results(m)
        Answer(r.community, r.delta, capped = if (m.startsWith("Exact")) Some(r.capped) else None)
    }
  }
}
