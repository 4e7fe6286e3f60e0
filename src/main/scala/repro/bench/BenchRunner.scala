package repro.bench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import repro.core._
import repro.baselines.{Acq, LocAtc, Vac}
import repro.eval.{Harness, Metrics}
import repro.graph._
import repro.synthgraph.Datasets

/** Shared machinery for the per-table benchmarks (§VII).
  *
  * Every method is timed end to end per query. SEA pays its whole
  * sampling-estimation pipeline. Exact and the comparison baselines pay the
  * walk that collects q's maximal connected k-core/k-truss (one Spark job on
  * a lite graph) plus their driver-side search; the distributed
  * k-core/k-truss peel does not depend on q, so it runs once per graph and
  * model ([[AttributedGraph.peelIndex]]) and keeps the peeled graph as a node
  * store. SEA's BFS looks its layers up in the graph's own node store
  * ([[AttributedGraph.nodeStore]]), built once per graph. The tables build
  * the index and the store before their timed queries, and Table V reports
  * their build times on their own.
  * Exact ground truth is state-capped; the cap plays the role of the paper's
  * ">8 days" timeouts and is reported.
  */
object BenchRunner {

  final case class MethodResult(
      community: Set[Long],
      delta: Double,
      timeMs: Double,
      capped: Boolean = false,
  )

  final case class QueryEval(
      q: Long,
      results: Map[String, MethodResult],
  )

  /** One prepared dataset: the distributed graph (projected for hetero), its
    * collected mirror with normalized attributes, membership, and γ.
    */
  final case class Prepared(
      name: String,
      g: AttributedGraph,
      lg: LocalGraph,
      membership: Map[Long, Int],
      gamma: Double,
      raw: AttributedGraph, // un-projected graph (== g for homogeneous)
      circles: Set[Long] = Set.empty, // annotated (HA-GT) members
  )

  private val prepared = mutable.Map.empty[(SparkSession, String), Prepared]

  /** `name`'s dataset, prepared once per session on first use, so every
    * table shares one projection, one mirror and the graph's per-graph
    * structures.
    */
  private def once(spark: SparkSession, name: String)(prepare: => Prepared): Prepared =
    prepared.synchronized(prepared.getOrElseUpdate((spark, name), prepare))

  def prepareHomo(spark: SparkSession, name: String): Prepared = once(spark, name) {
    val gen = Datasets.homo(spark, name)
    Prepared(name, gen.graph, Harness.collectWhole(gen.graph), gen.membership,
      Datasets.gammaFor(name), gen.graph, gen.circles)
  }

  def prepareHetero(spark: SparkSession, name: String): Prepared = once(spark, name) {
    val gen = Datasets.hetero(spark, name)
    val spec = Datasets.heteroSpecs(name)
    val proj = MetaPath.project(gen.graph, spec.metaPath).cached()
    Prepared(name, proj, Harness.collectWhole(proj), gen.membership,
      Datasets.gammaFor(name), gen.graph, gen.circles)
  }

  /** Benchmark parameters the tables set per table. The method parameters
    * all tables share are constants below, `Blb` fixes α and `Sea` β; the
    * deviations from the paper's defaults are documented in EXPERIMENTS.md:
    * queries default to 15 (paper 200) for the single-machine time budget.
    */
  final case class Params(
      k: Int = 6,
      queries: Int = 15,
      exactCap: Long = 300_000L,
      evacCap: Long = 100_000L,
  )

  // ε=0.2 (paper 0.05) brings the Hoeffding minimum |G_q| down to 547–700
  // nodes at k=6, below |V| on every lite graph except facebook-lite (n=400,
  // where G_q = G). e=0.02, λ=0.2 and 1−α=1−β=95% are the paper's defaults.
  private val E = 0.02
  private val Eps = 0.2
  private val Lambda = 0.2
  private val Seed = 2024L

  def seaConfig(p: Params, gamma: Double, truss: Boolean = false,
                sizeBound: Option[(Int, Int)] = None): Sea.Config =
    Sea.Config(k = p.k, gamma = gamma, eps = Eps, lambda = Lambda, e = E,
      truss = truss, sizeBound = sizeBound, seed = Seed)

  /** Evaluate the requested methods on one query. `SEA` and `SEA-Truss` run
    * [[Sea.run]]. Every other key names a method searched on q's maximal
    * connected structure: Exact, ACQ, LocATC, VAC or E-VAC, with a `-Truss`
    * suffix for the k-truss model and an optional `-Core` suffix for the
    * k-core model (the tables use Exact, ACQ-Core, LocATC-Core, VAC-Core,
    * E-VAC-Core, Exact-Truss, LocATC-Truss and VAC-Truss). Each model's
    * structure and its f(·,q) column are built once per query, and their
    * time counts towards every method searched on them; the index the
    * structure is walked in is built once per graph.
    * δ is scored on the graph each method searched: SEA's is its δ*, the
    * exact mean over its community, and every other method's is
    * [[AttrDistance.delta]] over q's collected structure. An empty community
    * has δ = NaN.
    * Throws `IllegalArgumentException` on an unknown key.
    */
  def evalQuery(prep: Prepared, q: Long, p: Params, methods: Seq[String]): QueryEval = {
    val out = mutable.Map.empty[String, MethodResult]
    val (sea, searched) = methods.partition(m => m == "SEA" || m == "SEA-Truss")
    sea.foreach { m =>
      val (r, t) = Harness.timeMs(
        Sea.run(prep.g, q, seaConfig(p, prep.gamma, truss = m == "SEA-Truss")))
      out(m) = MethodResult(r.community, r.deltaStar, t)
    }

    // Each search maps q's structure, q's index in it and f(·,q) to its
    // community and whether a state cap stopped it.
    def search(key: String, model: CohesionModel): (LocalGraph, Int, Array[Double]) => (Set[Long], Boolean) =
      key.stripSuffix("-Truss").stripSuffix("-Core") match {
        case "Exact" => (lg, qi, f) =>
          val r = ExactCSAG.run(lg, qi, f, model, ExactCSAG.Pruning.All, p.exactCap)
          (r.community, r.capped)
        case "ACQ" => (lg, qi, _) =>
          // ACQ needs >=1 shared textual attribute (equality matching); with
          // numerical-only data it cannot return a community (paper §VII-E).
          val r = Acq.run(lg, qi, model)
          (if (r.sharedAttrs.isEmpty) Set.empty else r.community, false)
        case "LocATC" => (lg, qi, _) => (LocAtc.run(lg, qi, model).community, false)
        case "VAC" => (lg, qi, f) => (Vac.run(lg, qi, f, model, prep.gamma).community, false)
        case "E-VAC" => (lg, qi, f) =>
          val r = Vac.runExact(lg, qi, f, model, prep.gamma, p.evacCap)
          (r.community, r.capped)
        case _ => throw new IllegalArgumentException(s"unknown method key: $key")
      }

    searched.groupBy(_.endsWith("-Truss")).foreach { case (truss, keys) =>
      val model = if (truss) TrussModel(p.k) else CoreModel(p.k)
      val runs = keys.map(m => m -> search(m, model))
      val (lg, tLg) = Harness.timeMs(model.maximalConnected(prep.g, q))
      if (lg.n == 0) keys.foreach(m => out(m) = MethodResult(Set.empty, Double.NaN, tLg))
      else {
        val qi = lg.indexOf(q)
        val (f, tF) = Harness.timeMs(lg.distancesTo(qi, prep.gamma))
        runs.foreach { case (m, run) =>
          val ((community, capped), t) = Harness.timeMs(run(lg, qi, f))
          out(m) = MethodResult(community, AttrDistance.delta(f, lg.localSet(community), qi),
            tLg + tF + t, capped)
        }
      }
    }

    QueryEval(q, out.toMap)
  }

  /** Query nodes: coreness-eligible and, when the dataset has annotated
    * circles, drawn from them — the paper's HA-GT evaluation presumes the
    * query lies inside an annotated community.
    */
  def pickQueries(prep: Prepared, p: Params): Seq[Long] = {
    val all = Harness.pickQueries(prep.lg, p.k, p.queries * 4, Seed)
    val inCircle = if (prep.circles.isEmpty) all else all.filter(prep.circles)
    (if (inCircle.size >= p.queries) inCircle else all).take(p.queries)
  }

  // ---- aggregation helpers --------------------------------------------------

  def meanOf(evals: Seq[QueryEval], method: String, f: MethodResult => Double): Double = {
    val xs = evals.flatMap(_.results.get(method)).map(f).filterNot(_.isNaN)
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size
  }

  def meanTime(evals: Seq[QueryEval], method: String): Double =
    meanOf(evals, method, _.timeMs)

  def meanDelta(evals: Seq[QueryEval], method: String): Double =
    meanOf(evals, method, _.delta)

  /** Mean relative error of a method's δ vs the per-query exact δ. */
  def meanError(evals: Seq[QueryEval], method: String, exactKey: String): Double = {
    val xs = evals.flatMap { ev =>
      for {
        r <- ev.results.get(method)
        ex <- ev.results.get(exactKey)
        if !r.delta.isNaN && !ex.delta.isNaN && ex.delta > 0
      } yield Metrics.relativeError(r.delta, ex.delta)
    }
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size
  }

  def fmt(x: Double, digits: Int = 3): String =
    if (x.isNaN) "-" else s"%.${digits}f".format(x)
}
