#include "geo/metro.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace acdn {

namespace {

struct RawMetro {
  const char* name;
  const char* country;
  Region region;
  double lat;
  double lon;
  double pop_m;
};

// Approximate coordinates and metro-area populations (millions), circa 2015.
constexpr RawMetro kWorldMetros[] = {
    // --- North America ---
    {"New York", "US", Region::kNorthAmerica, 40.71, -74.01, 19.5},
    {"Los Angeles", "US", Region::kNorthAmerica, 34.05, -118.24, 13.0},
    {"Chicago", "US", Region::kNorthAmerica, 41.88, -87.63, 9.5},
    {"Dallas", "US", Region::kNorthAmerica, 32.78, -96.80, 7.5},
    {"Houston", "US", Region::kNorthAmerica, 29.76, -95.37, 7.0},
    {"Washington", "US", Region::kNorthAmerica, 38.91, -77.04, 6.2},
    {"Miami", "US", Region::kNorthAmerica, 25.76, -80.19, 6.1},
    {"Philadelphia", "US", Region::kNorthAmerica, 39.95, -75.17, 6.0},
    {"Atlanta", "US", Region::kNorthAmerica, 33.75, -84.39, 6.0},
    {"Boston", "US", Region::kNorthAmerica, 42.36, -71.06, 4.9},
    {"Phoenix", "US", Region::kNorthAmerica, 33.45, -112.07, 4.8},
    {"San Francisco", "US", Region::kNorthAmerica, 37.77, -122.42, 4.7},
    {"Seattle", "US", Region::kNorthAmerica, 47.61, -122.33, 4.0},
    {"San Jose", "US", Region::kNorthAmerica, 37.34, -121.89, 2.0},
    {"Denver", "US", Region::kNorthAmerica, 39.74, -104.99, 2.9},
    {"Minneapolis", "US", Region::kNorthAmerica, 44.98, -93.27, 3.6},
    {"San Diego", "US", Region::kNorthAmerica, 32.72, -117.16, 3.3},
    {"Detroit", "US", Region::kNorthAmerica, 42.33, -83.05, 4.3},
    {"Salt Lake City", "US", Region::kNorthAmerica, 40.76, -111.89, 1.2},
    {"Portland", "US", Region::kNorthAmerica, 45.52, -122.68, 2.5},
    {"St. Louis", "US", Region::kNorthAmerica, 38.63, -90.20, 2.8},
    {"Charlotte", "US", Region::kNorthAmerica, 35.23, -80.84, 2.6},
    {"Kansas City", "US", Region::kNorthAmerica, 39.10, -94.58, 2.2},
    {"Las Vegas", "US", Region::kNorthAmerica, 36.17, -115.14, 2.2},
    {"Columbus", "US", Region::kNorthAmerica, 39.96, -83.00, 2.1},
    {"Nashville", "US", Region::kNorthAmerica, 36.16, -86.78, 2.0},
    {"Austin", "US", Region::kNorthAmerica, 30.27, -97.74, 2.3},
    {"Sacramento", "US", Region::kNorthAmerica, 38.58, -121.49, 2.4},
    {"Tampa", "US", Region::kNorthAmerica, 27.95, -82.46, 3.2},
    {"Cleveland", "US", Region::kNorthAmerica, 41.50, -81.69, 2.1},
    {"Pittsburgh", "US", Region::kNorthAmerica, 40.44, -80.00, 2.3},
    {"Orlando", "US", Region::kNorthAmerica, 28.54, -81.38, 2.6},
    {"Toronto", "CA", Region::kNorthAmerica, 43.65, -79.38, 6.2},
    {"Montreal", "CA", Region::kNorthAmerica, 45.50, -73.57, 4.2},
    {"Vancouver", "CA", Region::kNorthAmerica, 49.28, -123.12, 2.6},
    {"Calgary", "CA", Region::kNorthAmerica, 51.05, -114.07, 1.5},
    {"Mexico City", "MX", Region::kNorthAmerica, 19.43, -99.13, 21.8},
    {"Guadalajara", "MX", Region::kNorthAmerica, 20.66, -103.35, 5.2},
    {"Monterrey", "MX", Region::kNorthAmerica, 25.69, -100.32, 4.7},
    // --- Europe ---
    {"London", "GB", Region::kEurope, 51.51, -0.13, 14.0},
    {"Manchester", "GB", Region::kEurope, 53.48, -2.24, 3.4},
    {"Edinburgh", "GB", Region::kEurope, 55.95, -3.19, 0.9},
    {"Paris", "FR", Region::kEurope, 48.86, 2.35, 12.5},
    {"Lyon", "FR", Region::kEurope, 45.76, 4.84, 2.3},
    {"Marseille", "FR", Region::kEurope, 43.30, 5.37, 1.9},
    {"Madrid", "ES", Region::kEurope, 40.42, -3.70, 6.7},
    {"Barcelona", "ES", Region::kEurope, 41.39, 2.17, 5.6},
    {"Berlin", "DE", Region::kEurope, 52.52, 13.40, 6.1},
    {"Frankfurt", "DE", Region::kEurope, 50.11, 8.68, 2.7},
    {"Munich", "DE", Region::kEurope, 48.14, 11.58, 2.9},
    {"Hamburg", "DE", Region::kEurope, 53.55, 9.99, 3.1},
    {"Amsterdam", "NL", Region::kEurope, 52.37, 4.90, 2.9},
    {"Rotterdam", "NL", Region::kEurope, 51.92, 4.48, 1.0},
    {"Brussels", "BE", Region::kEurope, 50.85, 4.35, 2.5},
    {"Milan", "IT", Region::kEurope, 45.46, 9.19, 4.3},
    {"Rome", "IT", Region::kEurope, 41.90, 12.50, 4.3},
    {"Turin", "IT", Region::kEurope, 45.07, 7.69, 1.7},
    {"Vienna", "AT", Region::kEurope, 48.21, 16.37, 2.9},
    {"Zurich", "CH", Region::kEurope, 47.38, 8.54, 1.4},
    {"Stockholm", "SE", Region::kEurope, 59.33, 18.07, 2.4},
    {"Gothenburg", "SE", Region::kEurope, 57.71, 11.97, 1.0},
    {"Oslo", "NO", Region::kEurope, 59.91, 10.75, 1.5},
    {"Copenhagen", "DK", Region::kEurope, 55.68, 12.57, 2.1},
    {"Helsinki", "FI", Region::kEurope, 60.17, 24.94, 1.5},
    {"Warsaw", "PL", Region::kEurope, 52.23, 21.01, 3.1},
    {"Prague", "CZ", Region::kEurope, 50.08, 14.44, 2.7},
    {"Budapest", "HU", Region::kEurope, 47.50, 19.04, 3.0},
    {"Bucharest", "RO", Region::kEurope, 44.43, 26.10, 2.3},
    {"Athens", "GR", Region::kEurope, 37.98, 23.73, 3.2},
    {"Lisbon", "PT", Region::kEurope, 38.72, -9.14, 2.9},
    {"Dublin", "IE", Region::kEurope, 53.35, -6.26, 2.0},
    {"Moscow", "RU", Region::kEurope, 55.76, 37.62, 17.1},
    {"St. Petersburg", "RU", Region::kEurope, 59.93, 30.34, 5.5},
    {"Kyiv", "UA", Region::kEurope, 50.45, 30.52, 3.0},
    {"Istanbul", "TR", Region::kEurope, 41.01, 28.98, 15.5},
    // --- Asia ---
    {"Tokyo", "JP", Region::kAsia, 35.68, 139.69, 37.4},
    {"Osaka", "JP", Region::kAsia, 34.69, 135.50, 19.2},
    {"Nagoya", "JP", Region::kAsia, 35.18, 136.91, 9.5},
    {"Seoul", "KR", Region::kAsia, 37.57, 126.98, 25.5},
    {"Beijing", "CN", Region::kAsia, 39.90, 116.41, 20.4},
    {"Shanghai", "CN", Region::kAsia, 31.23, 121.47, 27.1},
    {"Guangzhou", "CN", Region::kAsia, 23.13, 113.26, 13.3},
    {"Shenzhen", "CN", Region::kAsia, 22.54, 114.06, 12.4},
    {"Hong Kong", "HK", Region::kAsia, 22.32, 114.17, 7.5},
    {"Taipei", "TW", Region::kAsia, 25.03, 121.57, 7.0},
    {"Singapore", "SG", Region::kAsia, 1.35, 103.82, 5.9},
    {"Kuala Lumpur", "MY", Region::kAsia, 3.14, 101.69, 7.6},
    {"Bangkok", "TH", Region::kAsia, 13.76, 100.50, 10.5},
    {"Jakarta", "ID", Region::kAsia, -6.21, 106.85, 10.6},
    {"Manila", "PH", Region::kAsia, 14.60, 120.98, 13.5},
    {"Ho Chi Minh City", "VN", Region::kAsia, 10.82, 106.63, 9.0},
    {"Mumbai", "IN", Region::kAsia, 19.08, 72.88, 20.4},
    {"Delhi", "IN", Region::kAsia, 28.70, 77.10, 30.3},
    {"Bangalore", "IN", Region::kAsia, 12.97, 77.59, 12.3},
    {"Chennai", "IN", Region::kAsia, 13.08, 80.27, 10.9},
    {"Hyderabad", "IN", Region::kAsia, 17.38, 78.49, 10.0},
    {"Kolkata", "IN", Region::kAsia, 22.57, 88.36, 14.8},
    {"Karachi", "PK", Region::kAsia, 24.86, 67.00, 16.0},
    {"Dhaka", "BD", Region::kAsia, 23.81, 90.41, 21.0},
    // --- Oceania ---
    {"Sydney", "AU", Region::kOceania, -33.87, 151.21, 5.3},
    {"Melbourne", "AU", Region::kOceania, -37.81, 144.96, 5.1},
    {"Brisbane", "AU", Region::kOceania, -27.47, 153.03, 2.5},
    {"Perth", "AU", Region::kOceania, -31.95, 115.86, 2.1},
    {"Auckland", "NZ", Region::kOceania, -36.85, 174.76, 1.7},
    // --- South America ---
    {"Sao Paulo", "BR", Region::kSouthAmerica, -23.55, -46.63, 22.0},
    {"Rio de Janeiro", "BR", Region::kSouthAmerica, -22.91, -43.17, 13.5},
    {"Brasilia", "BR", Region::kSouthAmerica, -15.79, -47.88, 4.6},
    {"Porto Alegre", "BR", Region::kSouthAmerica, -30.03, -51.23, 4.1},
    {"Buenos Aires", "AR", Region::kSouthAmerica, -34.60, -58.38, 15.2},
    {"Santiago", "CL", Region::kSouthAmerica, -33.45, -70.67, 6.8},
    {"Lima", "PE", Region::kSouthAmerica, -12.05, -77.04, 10.7},
    {"Bogota", "CO", Region::kSouthAmerica, 4.71, -74.07, 10.8},
    {"Caracas", "VE", Region::kSouthAmerica, 10.48, -66.90, 2.9},
    // --- Africa ---
    {"Johannesburg", "ZA", Region::kAfrica, -26.20, 28.05, 9.6},
    {"Cape Town", "ZA", Region::kAfrica, -33.92, 18.42, 4.6},
    {"Lagos", "NG", Region::kAfrica, 6.52, 3.38, 14.4},
    {"Nairobi", "KE", Region::kAfrica, -1.29, 36.82, 4.7},
    {"Cairo", "EG", Region::kAfrica, 30.04, 31.24, 20.9},
    {"Casablanca", "MA", Region::kAfrica, 33.57, -7.59, 3.7},
    {"Accra", "GH", Region::kAfrica, 5.60, -0.19, 2.5},
    // --- Middle East ---
    {"Dubai", "AE", Region::kMiddleEast, 25.20, 55.27, 3.3},
    {"Tel Aviv", "IL", Region::kMiddleEast, 32.09, 34.78, 4.2},
    {"Riyadh", "SA", Region::kMiddleEast, 24.71, 46.68, 7.7},
    {"Doha", "QA", Region::kMiddleEast, 25.29, 51.53, 2.4},
    {"Amman", "JO", Region::kMiddleEast, 31.95, 35.93, 2.1},
    {"Tehran", "IR", Region::kMiddleEast, 35.69, 51.39, 9.0},
    {"Jeddah", "SA", Region::kMiddleEast, 21.49, 39.19, 4.7},
    {"Kuwait City", "KW", Region::kMiddleEast, 29.38, 47.99, 3.1},
    {"Abu Dhabi", "AE", Region::kMiddleEast, 24.45, 54.38, 1.5},
    {"Muscat", "OM", Region::kMiddleEast, 23.59, 58.41, 1.6},
    {"Baghdad", "IQ", Region::kMiddleEast, 33.31, 44.37, 7.5},
    {"Beirut", "LB", Region::kMiddleEast, 33.89, 35.50, 2.4},
    // --- North America: secondary metros ---
    {"Indianapolis", "US", Region::kNorthAmerica, 39.77, -86.16, 2.1},
    {"Cincinnati", "US", Region::kNorthAmerica, 39.10, -84.51, 2.2},
    {"Milwaukee", "US", Region::kNorthAmerica, 43.04, -87.91, 1.6},
    {"Raleigh", "US", Region::kNorthAmerica, 35.78, -78.64, 1.4},
    {"Richmond", "US", Region::kNorthAmerica, 37.54, -77.44, 1.3},
    {"Memphis", "US", Region::kNorthAmerica, 35.15, -90.05, 1.3},
    {"Oklahoma City", "US", Region::kNorthAmerica, 35.47, -97.52, 1.4},
    {"New Orleans", "US", Region::kNorthAmerica, 29.95, -90.07, 1.3},
    {"Louisville", "US", Region::kNorthAmerica, 38.25, -85.76, 1.3},
    {"Buffalo", "US", Region::kNorthAmerica, 42.89, -78.88, 1.1},
    {"Albuquerque", "US", Region::kNorthAmerica, 35.08, -106.65, 0.9},
    {"Tucson", "US", Region::kNorthAmerica, 32.22, -110.97, 1.0},
    {"El Paso", "US", Region::kNorthAmerica, 31.76, -106.49, 0.9},
    {"Boise", "US", Region::kNorthAmerica, 43.62, -116.21, 0.7},
    {"Spokane", "US", Region::kNorthAmerica, 47.66, -117.43, 0.6},
    {"Omaha", "US", Region::kNorthAmerica, 41.26, -95.93, 0.9},
    {"Des Moines", "US", Region::kNorthAmerica, 41.59, -93.62, 0.7},
    {"Jacksonville", "US", Region::kNorthAmerica, 30.33, -81.66, 1.5},
    {"Hartford", "US", Region::kNorthAmerica, 41.76, -72.67, 1.2},
    {"Ottawa", "CA", Region::kNorthAmerica, 45.42, -75.70, 1.4},
    {"Edmonton", "CA", Region::kNorthAmerica, 53.55, -113.49, 1.4},
    {"Winnipeg", "CA", Region::kNorthAmerica, 49.90, -97.14, 0.8},
    {"Quebec City", "CA", Region::kNorthAmerica, 46.81, -71.21, 0.8},
    {"Halifax", "CA", Region::kNorthAmerica, 44.65, -63.58, 0.4},
    {"Puebla", "MX", Region::kNorthAmerica, 19.04, -98.20, 3.2},
    {"Tijuana", "MX", Region::kNorthAmerica, 32.51, -117.04, 2.1},
    {"Leon", "MX", Region::kNorthAmerica, 21.12, -101.68, 1.8},
    // --- Europe: secondary metros ---
    {"Birmingham", "GB", Region::kEurope, 52.49, -1.89, 2.9},
    {"Leeds", "GB", Region::kEurope, 53.80, -1.55, 1.9},
    {"Glasgow", "GB", Region::kEurope, 55.86, -4.25, 1.7},
    {"Bordeaux", "FR", Region::kEurope, 44.84, -0.58, 1.2},
    {"Toulouse", "FR", Region::kEurope, 43.60, 1.44, 1.3},
    {"Lille", "FR", Region::kEurope, 50.63, 3.06, 1.2},
    {"Valencia", "ES", Region::kEurope, 39.47, -0.38, 1.6},
    {"Seville", "ES", Region::kEurope, 37.39, -5.99, 1.5},
    {"Bilbao", "ES", Region::kEurope, 43.26, -2.93, 1.0},
    {"Porto", "PT", Region::kEurope, 41.15, -8.61, 1.7},
    {"Stuttgart", "DE", Region::kEurope, 48.78, 9.18, 2.8},
    {"Cologne", "DE", Region::kEurope, 50.94, 6.96, 2.0},
    {"Dusseldorf", "DE", Region::kEurope, 51.23, 6.78, 1.6},
    {"Leipzig", "DE", Region::kEurope, 51.34, 12.37, 1.1},
    {"Nuremberg", "DE", Region::kEurope, 49.45, 11.08, 1.3},
    {"Naples", "IT", Region::kEurope, 40.85, 14.27, 3.1},
    {"Bologna", "IT", Region::kEurope, 44.49, 11.34, 1.0},
    {"Geneva", "CH", Region::kEurope, 46.20, 6.14, 0.6},
    {"Antwerp", "BE", Region::kEurope, 51.22, 4.40, 1.2},
    {"Eindhoven", "NL", Region::kEurope, 51.44, 5.47, 0.8},
    {"Malmo", "SE", Region::kEurope, 55.60, 13.00, 0.7},
    {"Bergen", "NO", Region::kEurope, 60.39, 5.32, 0.4},
    {"Aarhus", "DK", Region::kEurope, 56.16, 10.20, 0.3},
    {"Tampere", "FI", Region::kEurope, 61.50, 23.76, 0.4},
    {"Krakow", "PL", Region::kEurope, 50.06, 19.94, 1.4},
    {"Wroclaw", "PL", Region::kEurope, 51.11, 17.04, 1.1},
    {"Gdansk", "PL", Region::kEurope, 54.35, 18.65, 1.0},
    {"Brno", "CZ", Region::kEurope, 49.20, 16.61, 0.7},
    {"Bratislava", "SK", Region::kEurope, 48.15, 17.11, 0.7},
    {"Ljubljana", "SI", Region::kEurope, 46.06, 14.51, 0.5},
    {"Zagreb", "HR", Region::kEurope, 45.82, 15.98, 1.1},
    {"Belgrade", "RS", Region::kEurope, 44.79, 20.45, 1.7},
    {"Sofia", "BG", Region::kEurope, 42.70, 23.32, 1.5},
    {"Thessaloniki", "GR", Region::kEurope, 40.64, 22.94, 1.1},
    {"Cluj-Napoca", "RO", Region::kEurope, 46.77, 23.60, 0.7},
    {"Vilnius", "LT", Region::kEurope, 54.69, 25.28, 0.8},
    {"Riga", "LV", Region::kEurope, 56.95, 24.11, 1.0},
    {"Tallinn", "EE", Region::kEurope, 59.44, 24.75, 0.6},
    {"Minsk", "BY", Region::kEurope, 53.90, 27.57, 2.0},
    {"Kharkiv", "UA", Region::kEurope, 49.99, 36.23, 1.4},
    {"Odesa", "UA", Region::kEurope, 46.48, 30.73, 1.0},
    {"Kazan", "RU", Region::kEurope, 55.80, 49.11, 1.2},
    {"Yekaterinburg", "RU", Region::kEurope, 56.84, 60.60, 1.5},
    {"Novosibirsk", "RU", Region::kEurope, 55.01, 82.93, 1.6},
    {"Rostov-on-Don", "RU", Region::kEurope, 47.24, 39.71, 1.1},
    {"Ankara", "TR", Region::kEurope, 39.93, 32.86, 5.6},
    {"Izmir", "TR", Region::kEurope, 38.42, 27.14, 4.4},
    // --- Asia: secondary metros ---
    {"Fukuoka", "JP", Region::kAsia, 33.59, 130.40, 5.5},
    {"Sapporo", "JP", Region::kAsia, 43.06, 141.35, 2.6},
    {"Busan", "KR", Region::kAsia, 35.18, 129.08, 3.4},
    {"Daegu", "KR", Region::kAsia, 35.87, 128.60, 2.5},
    {"Kaohsiung", "TW", Region::kAsia, 22.63, 120.30, 2.8},
    {"Hanoi", "VN", Region::kAsia, 21.03, 105.85, 8.1},
    {"Surabaya", "ID", Region::kAsia, -7.26, 112.75, 2.9},
    {"Bandung", "ID", Region::kAsia, -6.92, 107.61, 2.5},
    {"Cebu", "PH", Region::kAsia, 10.32, 123.89, 2.9},
    {"Chengdu", "CN", Region::kAsia, 30.57, 104.07, 16.0},
    {"Chongqing", "CN", Region::kAsia, 29.43, 106.91, 15.0},
    {"Wuhan", "CN", Region::kAsia, 30.59, 114.31, 11.0},
    {"Xian", "CN", Region::kAsia, 34.34, 108.94, 12.0},
    {"Tianjin", "CN", Region::kAsia, 39.34, 117.36, 13.6},
    {"Nanjing", "CN", Region::kAsia, 32.06, 118.80, 9.3},
    {"Hangzhou", "CN", Region::kAsia, 30.27, 120.15, 10.4},
    {"Shenyang", "CN", Region::kAsia, 41.81, 123.43, 8.1},
    {"Qingdao", "CN", Region::kAsia, 36.07, 120.38, 9.0},
    {"Ahmedabad", "IN", Region::kAsia, 23.02, 72.57, 7.7},
    {"Pune", "IN", Region::kAsia, 18.52, 73.86, 6.6},
    {"Surat", "IN", Region::kAsia, 21.17, 72.83, 6.1},
    {"Jaipur", "IN", Region::kAsia, 26.91, 75.79, 3.9},
    {"Lucknow", "IN", Region::kAsia, 26.85, 80.95, 3.5},
    {"Colombo", "LK", Region::kAsia, 6.93, 79.85, 2.3},
    {"Lahore", "PK", Region::kAsia, 31.55, 74.34, 11.1},
    {"Islamabad", "PK", Region::kAsia, 33.68, 73.05, 2.0},
    {"Chittagong", "BD", Region::kAsia, 22.36, 91.78, 4.0},
    {"Yangon", "MM", Region::kAsia, 16.87, 96.20, 5.2},
    {"Phnom Penh", "KH", Region::kAsia, 11.56, 104.92, 2.1},
    // --- Oceania: secondary metros ---
    {"Adelaide", "AU", Region::kOceania, -34.93, 138.60, 1.4},
    {"Gold Coast", "AU", Region::kOceania, -28.02, 153.40, 0.7},
    {"Wellington", "NZ", Region::kOceania, -41.29, 174.78, 0.4},
    {"Christchurch", "NZ", Region::kOceania, -43.53, 172.64, 0.4},
    // --- South America: secondary metros ---
    {"Medellin", "CO", Region::kSouthAmerica, 6.24, -75.58, 4.0},
    {"Cali", "CO", Region::kSouthAmerica, 3.45, -76.53, 2.8},
    {"Guayaquil", "EC", Region::kSouthAmerica, -2.19, -79.89, 3.0},
    {"Quito", "EC", Region::kSouthAmerica, -0.18, -78.47, 2.0},
    {"Cordoba", "AR", Region::kSouthAmerica, -31.42, -64.18, 1.6},
    {"Rosario", "AR", Region::kSouthAmerica, -32.95, -60.64, 1.3},
    {"Montevideo", "UY", Region::kSouthAmerica, -34.90, -56.19, 1.8},
    {"Asuncion", "PY", Region::kSouthAmerica, -25.26, -57.58, 2.3},
    {"La Paz", "BO", Region::kSouthAmerica, -16.50, -68.15, 1.8},
    {"Curitiba", "BR", Region::kSouthAmerica, -25.43, -49.27, 3.6},
    {"Salvador", "BR", Region::kSouthAmerica, -12.97, -38.50, 3.9},
    {"Fortaleza", "BR", Region::kSouthAmerica, -3.73, -38.52, 4.1},
    {"Recife", "BR", Region::kSouthAmerica, -8.05, -34.88, 4.1},
    {"Belo Horizonte", "BR", Region::kSouthAmerica, -19.92, -43.94, 6.0},
    // --- Africa: secondary metros ---
    {"Durban", "ZA", Region::kAfrica, -29.86, 31.02, 3.9},
    {"Pretoria", "ZA", Region::kAfrica, -25.75, 28.19, 2.8},
    {"Abuja", "NG", Region::kAfrica, 9.06, 7.50, 3.6},
    {"Addis Ababa", "ET", Region::kAfrica, 9.03, 38.74, 5.0},
    {"Dar es Salaam", "TZ", Region::kAfrica, -6.79, 39.21, 6.7},
    {"Kampala", "UG", Region::kAfrica, 0.35, 32.58, 3.4},
    {"Algiers", "DZ", Region::kAfrica, 36.75, 3.06, 2.8},
    {"Tunis", "TN", Region::kAfrica, 36.81, 10.18, 2.4},
    {"Dakar", "SN", Region::kAfrica, 14.72, -17.47, 3.1},
    {"Abidjan", "CI", Region::kAfrica, 5.36, -4.01, 5.2},
    {"Kinshasa", "CD", Region::kAfrica, -4.44, 15.27, 14.3},
    {"Luanda", "AO", Region::kAfrica, -8.84, 13.23, 8.3},
    {"Alexandria", "EG", Region::kAfrica, 31.20, 29.92, 5.2},
};

}  // namespace

MetroDatabase::MetroDatabase(std::vector<Metro> metros)
    : metros_(std::move(metros)) {
  const std::size_t n = metros_.size();
  for (std::size_t i = 0; i < n; ++i) {
    metros_[i].id = MetroId(static_cast<std::uint32_t>(i));
  }
  distance_.resize(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      distance_[a * n + b] =
          haversine_km(metros_[a].location, metros_[b].location);
    }
  }
}

const MetroDatabase& MetroDatabase::world() {
  static const MetroDatabase db = [] {
    std::vector<Metro> metros;
    metros.reserve(std::size(kWorldMetros));
    for (const RawMetro& raw : kWorldMetros) {
      metros.push_back(Metro{MetroId{}, raw.name, raw.country, raw.region,
                             GeoPoint{raw.lat, raw.lon}, raw.pop_m});
    }
    return MetroDatabase(std::move(metros));
  }();
  return db;
}

void MetroDatabase::throw_unknown(MetroId id) {
  throw NotFoundError("metro id " + std::to_string(id.value));
}

const Metro& MetroDatabase::metro(MetroId id) const {
  if (!id.valid() || id.value >= metros_.size()) throw_unknown(id);
  return metros_[id.value];
}

MetroId MetroDatabase::nearest(const GeoPoint& p) const {
  require(!metros_.empty(), "metro database is empty");
  MetroId best = metros_.front().id;
  Kilometers best_d = haversine_km(p, metros_.front().location);
  for (const Metro& m : metros_) {
    const Kilometers d = haversine_km(p, m.location);
    if (d < best_d) {
      best = m.id;
      best_d = d;
    }
  }
  return best;
}

std::vector<MetroId> MetroDatabase::k_nearest(const GeoPoint& p,
                                              std::size_t k) const {
  std::vector<std::pair<Kilometers, MetroId>> dist;
  dist.reserve(metros_.size());
  for (const Metro& m : metros_) {
    dist.emplace_back(haversine_km(p, m.location), m.id);
  }
  const std::size_t n = std::min(k, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(n),
                    dist.end());
  std::vector<MetroId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(dist[i].second);
  return out;
}

std::vector<MetroId> MetroDatabase::within_radius(const GeoPoint& p,
                                                  Kilometers radius_km) const {
  std::vector<std::pair<Kilometers, MetroId>> dist;
  for (const Metro& m : metros_) {
    const Kilometers d = haversine_km(p, m.location);
    if (d <= radius_km) dist.emplace_back(d, m.id);
  }
  std::sort(dist.begin(), dist.end());
  std::vector<MetroId> out;
  out.reserve(dist.size());
  for (const auto& [d, id] : dist) out.push_back(id);
  return out;
}

std::vector<MetroId> MetroDatabase::in_region(Region r) const {
  std::vector<MetroId> out;
  for (const Metro& m : metros_) {
    if (m.region == r) out.push_back(m.id);
  }
  return out;
}

double MetroDatabase::total_population(Region r) const {
  double total = 0.0;
  for (const Metro& m : metros_) {
    if (m.region == r) total += m.population_millions;
  }
  return total;
}

double MetroDatabase::total_population() const {
  return std::accumulate(metros_.begin(), metros_.end(), 0.0,
                         [](double acc, const Metro& m) {
                           return acc + m.population_millions;
                         });
}

std::optional<MetroId> MetroDatabase::find_by_name(
    std::string_view name) const {
  for (const Metro& m : metros_) {
    if (m.name == name) return m.id;
  }
  return std::nullopt;
}

}  // namespace acdn
