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
  * driver BFS that collects q's maximal connected k-core/k-truss plus their
  * driver-side search; the distributed k-core/k-truss peel under that BFS
  * does not depend on q, so it runs once per graph and model
  * ([[AttributedGraph.peeledAdjacency]]). The tables build it before their
  * timed queries, and Table V reports its time on its own.
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
      exactDelta: Double,
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
  ) {
    /** HA-GT community of a query: its block's annotated inner circle. */
    def groundTruthOf(q: Long): Set[Long] = {
      val c = membership(q)
      membership.collect { case (n, cc) if cc == c && circles(n) => n }.toSet
    }
  }

  def prepareHomo(spark: SparkSession, name: String): Prepared = {
    val gen = Datasets.homo(spark, name)
    Prepared(name, gen.graph, Harness.collectWhole(gen.graph), gen.membership,
      Datasets.gammaFor(name), gen.graph, gen.circles)
  }

  def prepareHetero(spark: SparkSession, name: String): Prepared = {
    val gen = Datasets.hetero(spark, name)
    val spec = Datasets.heteroSpecs(name)
    val proj = MetaPath.project(gen.graph, spec.metaPath).cached()
    Prepared(name, proj, Harness.collectWhole(proj), gen.membership,
      Datasets.gammaFor(name), gen.graph, gen.circles)
  }

  /** Default benchmark parameters. Deviations from the paper's defaults are
    * documented in EXPERIMENTS.md: ε=0.2 (paper 0.05) brings the Hoeffding
    * minimum |G_q| down to 547–700 nodes at k=6, below |V| on every lite
    * graph except facebook-lite (n=400, where G_q = G); queries default to 15
    * (paper 200) for the single-machine time budget. e=0.02 and 1−α=95% are
    * the paper's defaults.
    */
  final case class Params(
      k: Int = 6,
      queries: Int = 15,
      e: Double = 0.02,
      eps: Double = 0.2,
      beta: Double = 0.05,
      lambda: Double = 0.2,
      alpha: Double = 0.05,
      exactCap: Long = 300_000L,
      evacCap: Long = 100_000L,
      seed: Long = 2024,
  )

  def seaConfig(p: Params, gamma: Double, truss: Boolean = false,
                sizeBound: Option[(Int, Int)] = None): Sea.Config =
    Sea.Config(k = p.k, gamma = gamma, eps = p.eps, beta = p.beta,
      lambda = p.lambda, e = p.e, alpha = p.alpha, truss = truss,
      sizeBound = sizeBound, seed = p.seed)

  /** Evaluate the requested methods on one query. `SEA` and `SEA-Truss` run
    * [[Sea.run]]. Every other key names a method searched on q's maximal
    * connected structure: Exact, ACQ, LocATC, VAC or E-VAC, with a `-Truss`
    * suffix for the k-truss model and an optional `-Core` suffix for the
    * k-core model (the tables use Exact, ACQ-Core, LocATC-Core, VAC-Core,
    * E-VAC-Core, Exact-Truss, LocATC-Truss and VAC-Truss). Each model's
    * structure is collected once per query, and its time counts towards
    * every method searched on it; the peel under it is cached per graph.
    * δ is scored on the graph each method searched: SEA's is its δ*, the
    * exact mean over its community, and every other method's is taken on
    * q's collected structure. An empty community has δ = NaN.
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

    def search(key: String, model: CohesionModel): (LocalGraph, Int) => MethodResult =
      key.stripSuffix("-Truss").stripSuffix("-Core") match {
        case "Exact" => (lg, qi) =>
          val r = ExactCSAG.run(lg, qi, lg.distancesTo(qi, prep.gamma), model,
            ExactCSAG.Pruning.All, p.exactCap)
          MethodResult(r.community, r.delta, 0.0, r.capped)
        case "ACQ" => (lg, qi) =>
          // ACQ needs >=1 shared textual attribute (equality matching); with
          // numerical-only data it cannot return a community (paper §VII-E).
          val r = Acq.run(lg, qi, model)
          MethodResult(if (r.sharedAttrs.isEmpty) Set.empty else r.community, Double.NaN, 0.0)
        case "LocATC" => (lg, qi) =>
          MethodResult(LocAtc.run(lg, qi, model).community, Double.NaN, 0.0)
        case "VAC" => (lg, qi) =>
          MethodResult(Vac.run(lg, qi, model, prep.gamma).community, Double.NaN, 0.0)
        case "E-VAC" => (lg, qi) =>
          val r = Vac.runExact(lg, qi, model, prep.gamma, p.evacCap)
          MethodResult(r.community, Double.NaN, 0.0, r.capped)
        case _ => throw new IllegalArgumentException(s"unknown method key: $key")
      }

    searched.groupBy(_.endsWith("-Truss")).foreach { case (truss, keys) =>
      val model = if (truss) TrussModel(p.k) else CoreModel(p.k)
      val runs = keys.map(m => m -> search(m, model))
      val (lg, tPre) = Harness.timeMs(model.maximalConnected(prep.g, q))
      runs.foreach { case (m, run) =>
        out(m) =
          if (lg.n == 0) MethodResult(Set.empty, Double.NaN, tPre)
          else {
            val (r, t) = Harness.timeMs(run(lg, lg.indexOf(q)))
            val delta =
              if (!r.delta.isNaN) r.delta
              else if (r.community.isEmpty || r.community == Set(q)) Double.NaN
              else Metrics.delta(lg, r.community, q, prep.gamma)
            r.copy(delta = delta, timeMs = tPre + t)
          }
      }
    }

    val exactDelta = out.get("Exact").orElse(out.get("Exact-Truss"))
      .map(_.delta).getOrElse(Double.NaN)
    QueryEval(q, exactDelta, out.toMap)
  }

  /** Query nodes: coreness-eligible and, when the dataset has annotated
    * circles, drawn from them — the paper's HA-GT evaluation presumes the
    * query lies inside an annotated community.
    */
  def pickQueries(prep: Prepared, p: Params): Seq[Long] = {
    val all = Harness.pickQueries(prep.lg, p.k, p.queries * 4, p.seed)
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
