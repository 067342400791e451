package fleet

import (
	"strconv"

	"ecocapsule/internal/telemetry"
)

// Metric handles, resolved once at init.
var (
	mStations = telemetry.NewGauge("ecocapsule_fleet_stations",
		"reader stations deployed in the fleet")
	mStationsAlive = telemetry.NewGauge("ecocapsule_fleet_stations_alive",
		"reader stations currently operational")
	mKills = telemetry.NewCounter("ecocapsule_fleet_station_kills_total",
		"stations marked dead")
	mRevives = telemetry.NewCounter("ecocapsule_fleet_station_revives_total",
		"dead stations brought back")
	mReroutes = telemetry.NewCounter("ecocapsule_fleet_reroutes_total",
		"coverage recomputations: construction and every station kill or revive flipping liveness")
	mOrphans = telemetry.NewGauge("ecocapsule_fleet_orphans",
		"capsules no alive station currently reaches")
	mCoverage = telemetry.NewGaugeVec("ecocapsule_fleet_station_coverage",
		"capsules each station serves best", "station")
	mFleetReads = telemetry.NewCounterVec("ecocapsule_fleet_reads_total",
		"fleet sensor reads by route taken", "route")
	mSurveys = telemetry.NewCounterVec("ecocapsule_fleet_surveys_total",
		"surveys executed by coverage outcome", "coverage")
	mReportingRatio = telemetry.NewGauge("ecocapsule_fleet_survey_reporting_ratio",
		"reporting/expected capsule fraction of the last survey")
	mShardCapsules = telemetry.NewGaugeVec("ecocapsule_fleet_shard_capsules",
		"capsules owned by each spatial shard", "shard")
	mShardStations = telemetry.NewGaugeVec("ecocapsule_fleet_shard_stations",
		"stations covering each spatial shard", "shard")
	mChargeSkipped = telemetry.NewCounter("ecocapsule_fleet_charge_skipped_total",
		"capsules a charge pass could not drive because no alive station serves them")
)

// Read route label values: primary means the capsule's serving station
// answered the read, rerouted means a fallback station did, failed means
// none could.
const (
	routePrimary  = "primary"
	routeRerouted = "rerouted"
	routeFailed   = "failed"
)

// stationLabel renders a station index the way every metric labels it.
func stationLabel(i int) string { return strconv.Itoa(i) }

// shardLabel renders a shard index the way every metric labels it.
func shardLabel(i int) string { return strconv.Itoa(i) }
